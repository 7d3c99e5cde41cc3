"""Batched decode over the pool's caches: a descriptor, not a copy.

A ``BatchCache`` names the agents that one engine call decodes together:
their ids, their valid lengths and their live ``AgentCache`` records,
which hold the pool's own blocks. Nothing here copies, pads or quantizes
K/V. ``merge`` validates the rows; ``update_and_fetch`` checks one
step's new K/V, advances every row's length and splits the K/V into the
per-row, per-layer pairs that ``BlockPool.append_tokens`` quantizes into
each agent's blocks, so every token is stored once and quantized once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import AgentCache
from .codec import quantize_array  # noqa: F401  (perfbench/tracer.py patches this name)
from .errors import InvalidArgumentError, ShapeError, SpecMismatchError
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
    batch: BatchCache,
    new_k: Sequence[np.ndarray],
    new_v: Sequence[np.ndarray],
    spec: ModelCacheSpec,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Check one step's new K/V, advance every row and split it by row.

    ``new_k``/``new_v`` hold one float32 array per layer, shaped
    (batch, heads, t_new, k_head_dim) and (batch, heads, t_new, v_head_dim).
    Returns, per row, one (K, V) pair per layer shaped (heads, t_new, dim):
    views that ``BlockPool.append_tokens`` takes for that row's agent.
    A shape error leaves the batch unchanged.
    """
    if len(new_k) != spec.num_layers or len(new_v) != spec.num_layers:
        raise ShapeError(f"expected {spec.num_layers} per-layer K and V arrays")
    new_k = [np.asarray(k) for k in new_k]
    new_v = [np.asarray(v) for v in new_v]
    first = new_k[0]
    if first.ndim != 4 or first.shape[2] < 1:
        raise ShapeError(f"K arrays must be (batch, heads, t_new >= 1, dim), got {first.shape}")
    t_new = first.shape[2]
    for layer, (k, v) in enumerate(zip(new_k, new_v)):
        if k.shape != (batch.batch, spec.num_kv_heads, t_new, spec.k_head_dim):
            raise ShapeError(f"layer {layer} K shape {k.shape} inconsistent")
        if v.shape != (batch.batch, spec.num_kv_heads, t_new, spec.v_head_dim):
            raise ShapeError(f"layer {layer} V shape {v.shape} inconsistent")
    batch.valid_lens = [n + t_new for n in batch.valid_lens]
    return [[(k[row], v[row]) for k, v in zip(new_k, new_v)] for row in range(batch.batch)]
