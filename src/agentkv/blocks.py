"""Cache block and per-agent cache data structures."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .codec import QuantizedTensor
from .errors import ShapeError

__all__ = ["AgentCache", "CacheState", "KVBlock"]


class CacheState(enum.Enum):
    HOT = "hot"  # resident in memory
    WARM = "warm"  # persisted on disk only
    COLD = "cold"  # nonexistent; full prefill required


@dataclass
class KVBlock:
    """One fixed-size block of a layer's quantized K/V cache.

    A block's layer and token offset are its position in
    ``AgentCache.blocks``; only the final block of a layer may hold fewer
    than block_tokens tokens.
    """

    k: QuantizedTensor
    v: QuantizedTensor

    def __post_init__(self) -> None:
        if self.k.tokens < 1 or self.v.tokens != self.k.tokens:
            raise ShapeError(
                f"a block holds K and V for the same >= 1 tokens "
                f"(k={self.k.tokens}, v={self.v.tokens})"
            )

    @property
    def token_count(self) -> int:
        return self.k.tokens

    @property
    def nbytes(self) -> int:
        return self.k.nbytes + self.v.nbytes


@dataclass
class AgentCache:
    """One agent's cache: per-layer block lists plus transcript metadata.

    ``char_offsets[i]`` is the character offset in ``transcript_text`` where
    token i begins. All layers hold the same total token count.
    """

    agent_id: str
    spec_fingerprint: int
    blocks: list[list[KVBlock]]
    transcript_text: str = ""
    token_ids: list[int] = field(default_factory=list)
    char_offsets: list[int] = field(default_factory=list)

    @property
    def token_count(self) -> int:
        return len(self.token_ids)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for layer in self.blocks for block in layer)

    def block_token_counts(self) -> list[int]:
        """Per-block token counts, identical across layers."""
        if not self.blocks:
            return []
        return [b.token_count for b in self.blocks[0]]

    def validate(self, num_layers: int, block_tokens: int) -> None:
        """Check the structural block-shape and offset invariants."""
        if len(self.blocks) != num_layers:
            raise ShapeError(
                f"expected {num_layers} layers of blocks, got {len(self.blocks)}"
            )
        total = self.token_count
        counts = self.block_token_counts()
        for layer_index, layer in enumerate(self.blocks):
            if [b.token_count for b in layer] != counts:
                raise ShapeError(f"layer {layer_index} block sizes diverge across layers")
            if sum(b.token_count for b in layer) != total:
                raise ShapeError(
                    f"layer {layer_index} holds {sum(b.token_count for b in layer)} "
                    f"tokens, expected {total}"
                )
            for i, block in enumerate(layer):
                if i < len(layer) - 1 and block.token_count != block_tokens:
                    raise ShapeError("only the final block may be partially filled")
                if block.token_count > block_tokens:
                    raise ShapeError("block exceeds block_tokens")
        if len(self.char_offsets) != len(self.token_ids):
            raise ShapeError("char_offsets and token_ids lengths differ")
        if self.char_offsets:
            if self.char_offsets[0] != 0:
                raise ShapeError("first char offset must be 0")
            if any(b < a for a, b in zip(self.char_offsets, self.char_offsets[1:])):
                raise ShapeError("char_offsets must be non-decreasing")
            if len(self.transcript_text) < self.char_offsets[-1]:
                raise ShapeError("transcript shorter than final char offset")
