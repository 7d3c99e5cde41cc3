"""Batched decode over the pool's caches: a descriptor, not a copy.

A ``BatchCache`` names the agents that one engine call decodes together:
their ids, their valid lengths and their live ``AgentCache`` records,
which hold the pool's own blocks. Nothing here copies, pads or quantizes
K/V. ``merge`` validates the rows; ``update_and_fetch`` checks one
step's new K and V, one array each with every row and layer in it,
advances every row's length by one token and hands back each row's
(K, V) views, the pair that ``BlockPool.append_tokens`` quantizes into
that agent's blocks, so every token is stored once and quantized once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import AgentCache, check_kv
from .codec import quantize_array  # noqa: F401  (perfbench/tracer.py patches this name)
from .errors import InvalidArgumentError, SpecMismatchError
from .model_spec import ModelCacheSpec, spec_fingerprint

__all__ = ["BatchCache", "merge", "update_and_fetch"]


@dataclass
class BatchCache:
    """The rows of one batched decode step, over the pool's caches."""

    agent_ids: tuple[str, ...]
    valid_lens: list[int]
    spec_fingerprint: int
    caches: list[AgentCache]
    # Always empty: the pool's blocks are the only copy of the K/V. Kept
    # because perfbench/tracer.py sums it for batch.update_bytes_per_step.
    layers: list = field(default_factory=list)

    @property
    def batch(self) -> int:
        return len(self.agent_ids)

    @property
    def padded_len(self) -> int:
        """The longest row: the width of a dense left-padded view."""
        return max(self.valid_lens) if self.valid_lens else 0


def merge(
    caches: Sequence[AgentCache], spec: ModelCacheSpec, max_batch: int = 2
) -> BatchCache:
    """Describe agents' caches as the rows of one batch; copies nothing."""
    if not caches:
        raise InvalidArgumentError("merge needs at least one cache")
    if len(caches) > max_batch:
        raise InvalidArgumentError(
            f"batch of {len(caches)} exceeds max_batch {max_batch}"
        )
    fingerprint = spec_fingerprint(spec)
    for cache in caches:
        if cache.spec_fingerprint != fingerprint:
            raise SpecMismatchError(
                f"cache {cache.agent_id!r} carries a different spec fingerprint"
            )
    return BatchCache(
        agent_ids=tuple(c.agent_id for c in caches),
        valid_lens=[c.token_count for c in caches],
        spec_fingerprint=fingerprint,
        caches=list(caches),
    )


def update_and_fetch(
    batch: BatchCache, new_k: np.ndarray, new_v: np.ndarray, spec: ModelCacheSpec
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Check one step's new K/V, advance every row by one token, split by row.

    ``new_k``/``new_v`` are float32 arrays shaped
    (batch, layers, kv_heads, 1, k_head_dim) and (..., v_head_dim).
    Returns each row's (K, V) views, shaped (layers, kv_heads, 1, dim):
    the pair ``BlockPool.append_tokens`` takes for that row's agent.
    A shape error leaves the batch unchanged.
    """
    check_kv((new_k, new_v), (batch.batch, spec.num_layers, spec.num_kv_heads, 1), spec)
    batch.valid_lens = [n + 1 for n in batch.valid_lens]
    return [(new_k[row], new_v[row]) for row in range(batch.batch)]
