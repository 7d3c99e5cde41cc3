"""Cache block and per-agent cache data structures."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .codec import QuantizedTensor
from .errors import ShapeError
from .model_spec import ModelCacheSpec

__all__ = ["AgentCache", "CacheState", "KVBlock", "check_kv"]


class CacheState(enum.Enum):
    HOT = "hot"  # resident in memory
    WARM = "warm"  # persisted on disk only
    COLD = "cold"  # nonexistent; full prefill required


def check_kv(kv, lead: tuple[int, ...], spec: ModelCacheSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return ``kv`` if it is a (K, V) tuple of arrays shaped ``lead`` + (dim,).

    Raises ShapeError for anything else, a list of per-layer pairs included.
    """
    if not isinstance(kv, tuple) or len(kv) != 2:
        raise ShapeError("K/V must be one (K, V) tuple of arrays")
    for side, values, dim in zip("KV", kv, (spec.k_head_dim, spec.v_head_dim)):
        if not isinstance(values, np.ndarray) or values.shape != (*lead, dim):
            got = getattr(values, "shape", type(values).__name__)
            raise ShapeError(f"{side} must be an array shaped {(*lead, dim)}, got {got}")
    return kv


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


class AgentCache:
    """One agent's cache: per-layer block lists plus transcript metadata.

    ``char_offsets[i]`` is the character offset in ``transcript_text`` where
    token i begins. All layers hold the same total token count. Appended
    transcript text is kept as pieces and joined on the next read, so a
    decoded token costs O(1) however long the transcript is.
    """

    def __init__(self, agent_id: str, spec_fingerprint: int, blocks: list[list[KVBlock]],
                 transcript_text: str = "", token_ids: list[int] | None = None,
                 char_offsets: list[int] | None = None) -> None:
        self.agent_id = agent_id
        self.spec_fingerprint = spec_fingerprint
        self.blocks = blocks
        self.transcript_text = transcript_text
        self.token_ids = [] if token_ids is None else token_ids
        self.char_offsets = [] if char_offsets is None else char_offsets

    @property
    def transcript_text(self) -> str:
        if len(self._text_pieces) > 1:
            self._text_pieces[:] = ["".join(self._text_pieces)]
        return self._text_pieces[0]

    @transcript_text.setter
    def transcript_text(self, text: str) -> None:
        self._text_pieces = [text]
        self.transcript_chars = len(text)

    def append_text(self, text: str) -> None:
        """Extend the transcript without rebuilding it."""
        self._text_pieces.append(text)
        self.transcript_chars += len(text)

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
