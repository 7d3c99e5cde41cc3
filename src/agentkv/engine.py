"""Pluggable inference engine interface plus a synthetic implementation.

The scheduler drives anything that implements the Engine protocol. The
synthetic engine stands in for a real model: token ids and KV values are
deterministic functions of (agent, position), so prefilling the same
positions in any chunking yields bit-identical caches, traces are
reproducible, and no model weights are needed. Costs are observable via
counters, and a reentrancy detector records any overlapping engine calls
(the serving layer must never allow two in flight).
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .batch import BatchCache
from .model_spec import ModelCacheSpec

__all__ = ["Engine", "EngineCounters", "SyntheticEngine"]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a cheap stateless position-addressable PRNG."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stable_hash64(text: str) -> np.uint64:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return np.uint64(int.from_bytes(digest, "little"))


@dataclass
class EngineCounters:
    tokenize_calls: int = 0
    prefill_calls: int = 0
    prefill_tokens: int = 0
    decode_steps: int = 0
    decode_tokens: int = 0
    reentrancy_violations: int = 0


@runtime_checkable
class Engine(Protocol):
    """What the scheduler needs from a model backend."""

    counters: EngineCounters

    def tokenize(self, text: str) -> tuple[list[int], list[int]]:
        """Split text into (token_ids, char_offsets); offsets index into text."""

    def prefill_chunk(
        self, agent_id: str, token_ids: list[int], start_position: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (K, V) float32 tensors for one chunk of positions."""

    def decode_step(
        self, batch: BatchCache
    ) -> tuple[list[int], list[str], list[np.ndarray], list[np.ndarray]]:
        """One batched decode step.

        Row ``r`` of the batch is agent ``batch.agent_ids[r]``, whose new
        token sits at position ``batch.valid_lens[r]``; ``batch.caches[r]``
        is that agent's quantized cache, the pool's live blocks, for an
        engine that attends over it (read-only). No dense or padded copy
        is built. Returns (token_ids, token_texts, new_k, new_v) where
        new_k/new_v hold one (batch, heads, 1, dim) float32 array per
        layer; the scheduler appends each row to its agent's blocks.
        """


class SyntheticEngine:
    """Deterministic stand-in model.

    KV values are pseudo-random floats in [-1, 1) seeded by (agent, layer,
    position); decoded token ids hash (agent, position). Identical inputs
    always produce identical outputs, independent of chunk boundaries.
    """

    _TOKEN_TAG = np.uint64(0x7045)
    _K_TAG = np.uint64(0x4B)
    _V_TAG = np.uint64(0x56)

    def __init__(self, spec: ModelCacheSpec, seed: int = 0, token_chars: int = 4) -> None:
        self.spec = spec
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.token_chars = token_chars
        self.counters = EngineCounters()
        self._busy = False
        self._busy_lock = threading.Lock()

    @contextmanager
    def _exclusive(self):
        with self._busy_lock:
            if self._busy:
                self.counters.reentrancy_violations += 1
            self._busy = True
        try:
            yield
        finally:
            with self._busy_lock:
                self._busy = False

    # -- tokenization -------------------------------------------------------

    def tokenize(self, text: str) -> tuple[list[int], list[int]]:
        with self._exclusive():
            self.counters.tokenize_calls += 1
            ids: list[int] = []
            offsets: list[int] = []
            for start in range(0, len(text), self.token_chars):
                chunk = text[start : start + self.token_chars]
                ids.append(int(_stable_hash64(chunk) % np.uint64(50_257)))
                offsets.append(start)
            return ids, offsets

    # -- KV generation ------------------------------------------------------

    def _values(
        self, agent_id: str, layer: int, positions: np.ndarray, dim: int, tag: np.uint64
    ) -> np.ndarray:
        heads = self.spec.num_kv_heads
        base = _splitmix64(
            np.array(
                [
                    self.seed
                    ^ _stable_hash64(agent_id)
                    ^ (np.uint64(layer) << np.uint64(40))
                    ^ tag
                ],
                dtype=np.uint64,
            )
        )[0]
        counters = (
            positions.astype(np.uint64)[None, :, None] * np.uint64(heads * dim)
            + np.arange(heads, dtype=np.uint64)[:, None, None] * np.uint64(dim)
            + np.arange(dim, dtype=np.uint64)[None, None, :]
        )
        bits = _splitmix64(base + counters)
        unit = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return (unit * 2.0 - 1.0).astype(np.float32)

    def kv_for_positions(
        self, agent_id: str, positions: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        spec = self.spec
        return [
            (
                self._values(agent_id, layer, positions, spec.k_head_dim, self._K_TAG),
                self._values(agent_id, layer, positions, spec.v_head_dim, self._V_TAG),
            )
            for layer in range(spec.num_layers)
        ]

    def _next_token(self, agent_id: str, position: int) -> int:
        mixed = _splitmix64(
            np.array(
                [
                    self.seed
                    ^ _stable_hash64(agent_id)
                    ^ (np.uint64(position) << np.uint64(16))
                    ^ self._TOKEN_TAG
                ],
                dtype=np.uint64,
            )
        )[0]
        return int(mixed % np.uint64(50_257))

    @staticmethod
    def token_text(token_id: int) -> str:
        # exactly token_chars wide, so decoded text stays aligned with the
        # fixed-width tokenizer and re-tokenizing a transcript is stable
        return f"w{token_id % 1000:03d}"

    # -- engine protocol ----------------------------------------------------

    def prefill_chunk(
        self, agent_id: str, token_ids: list[int], start_position: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        with self._exclusive():
            self.counters.prefill_calls += 1
            self.counters.prefill_tokens += len(token_ids)
            positions = np.arange(
                start_position, start_position + len(token_ids), dtype=np.int64
            )
            return self.kv_for_positions(agent_id, positions)

    def decode_step(
        self, batch: BatchCache
    ) -> tuple[list[int], list[str], list[np.ndarray], list[np.ndarray]]:
        with self._exclusive():
            self.counters.decode_steps += 1
            self.counters.decode_tokens += batch.batch
            token_ids = []
            texts = []
            per_row_kv = []
            for row, agent_id in enumerate(batch.agent_ids):
                position = batch.valid_lens[row]  # the new token's index
                token = self._next_token(agent_id, position)
                token_ids.append(token)
                texts.append(self.token_text(token))
                per_row_kv.append(
                    self.kv_for_positions(
                        agent_id, np.array([position], dtype=np.int64)
                    )
                )
            new_k = [
                np.stack([per_row_kv[row][layer][0] for row in range(batch.batch)])
                for layer in range(self.spec.num_layers)
            ]
            new_v = [
                np.stack([per_row_kv[row][layer][1] for row in range(batch.batch)])
                for layer in range(self.spec.num_layers)
            ]
            return token_ids, texts, new_k, new_v
