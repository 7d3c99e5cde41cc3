"""Batched quantized caches: merge and append.

Several agents' caches merge into one left-padded batch (rows align at
the right edge, so decode appends uniformly). Padding positions hold a
deterministic filler (codes 0, scale 1, bias 0) that dequantizes to zero;
a row's first ``padded_len - valid_lens[row]`` positions are padding.
Each decode step quantizes the new tokens and appends them to every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import AgentCache
from .codec import quantize_array
from .errors import InvalidArgumentError, ShapeError, SpecMismatchError
from .model_spec import ModelCacheSpec, spec_fingerprint

__all__ = ["BatchCache", "merge", "update_and_fetch"]

_FILLER_SCALE_BITS = np.uint16(0x3F80)  # bf16 1.0


@dataclass
class _StackedQuant:
    """One layer's K or V for the whole batch, token axis left-padded."""

    packed: np.ndarray  # (batch, heads, padded, dim/8) uint32
    scales: np.ndarray  # (batch, heads, padded, dim/group) uint16
    biases: np.ndarray  # (batch, heads, padded, dim/group) uint16
    dim: int
    group_size: int


@dataclass
class BatchCache:
    """Left-padded stack of several agents' quantized caches."""

    agent_ids: tuple[str, ...]
    valid_lens: list[int]
    spec_fingerprint: int
    layers: list[dict[str, _StackedQuant]]

    @property
    def batch(self) -> int:
        return len(self.agent_ids)

    @property
    def padded_len(self) -> int:
        return max(self.valid_lens) if self.valid_lens else 0


def _layer_tokens(
    cache: AgentCache, layer: int, side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    tensors = [getattr(b, side) for b in cache.blocks[layer]]
    if not tensors:
        return None
    packed = np.concatenate([t.packed for t in tensors], axis=1)
    scales = np.concatenate([t.scales for t in tensors], axis=1)
    biases = np.concatenate([t.biases for t in tensors], axis=1)
    return packed, scales, biases


def _stack_side(
    caches: Sequence[AgentCache], layer: int, side: str, heads: int, dim: int, group: int,
    padded: int,
) -> _StackedQuant:
    batch = len(caches)
    packed = np.zeros((batch, heads, padded, dim // 8), dtype=np.uint32)
    scales = np.full((batch, heads, padded, dim // group), _FILLER_SCALE_BITS, dtype=np.uint16)
    biases = np.zeros((batch, heads, padded, dim // group), dtype=np.uint16)
    for row, cache in enumerate(caches):
        parts = _layer_tokens(cache, layer, side)
        if parts is None:
            continue
        p, s, b = parts
        t = p.shape[1]
        if t:
            packed[row, :, padded - t :] = p
            scales[row, :, padded - t :] = s
            biases[row, :, padded - t :] = b
    return _StackedQuant(packed=packed, scales=scales, biases=biases, dim=dim, group_size=group)


def merge(
    caches: Sequence[AgentCache], spec: ModelCacheSpec, max_batch: int = 2
) -> BatchCache:
    """Stack agents' caches along a batch axis, left-padding shorter rows."""
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
    valid = [c.token_count for c in caches]
    padded = max(valid)
    layers = []
    for layer in range(spec.num_layers):
        layers.append(
            {
                "k": _stack_side(
                    caches, layer, "k", spec.num_kv_heads, spec.k_head_dim,
                    spec.group_size, padded,
                ),
                "v": _stack_side(
                    caches, layer, "v", spec.num_kv_heads, spec.v_head_dim,
                    spec.group_size, padded,
                ),
            }
        )
    return BatchCache(
        agent_ids=tuple(c.agent_id for c in caches),
        valid_lens=valid,
        spec_fingerprint=fingerprint,
        layers=layers,
    )


def update_and_fetch(
    batch: BatchCache,
    new_k: Sequence[np.ndarray],
    new_v: Sequence[np.ndarray],
    spec: ModelCacheSpec,
) -> BatchCache:
    """Quantize and append new tokens at the right edge of every row.

    ``new_k``/``new_v`` hold one float32 array per layer, shaped
    (batch, heads, t_new, k_head_dim) and (batch, heads, t_new, v_head_dim).
    """
    if len(new_k) != spec.num_layers or len(new_v) != spec.num_layers:
        raise ShapeError(f"expected {spec.num_layers} per-layer K and V arrays")
    first = np.asarray(new_k[0])
    if first.ndim != 4 or first.shape[2] < 1:
        raise ShapeError(f"K arrays must be (batch, heads, t_new >= 1, dim), got {first.shape}")
    t_new = first.shape[2]
    for layer, (k, v) in enumerate(zip(new_k, new_v)):
        k = np.asarray(k)
        v = np.asarray(v)
        if k.shape != (batch.batch, spec.num_kv_heads, t_new, spec.k_head_dim):
            raise ShapeError(f"layer {layer} K shape {k.shape} inconsistent")
        if v.shape != (batch.batch, spec.num_kv_heads, t_new, spec.v_head_dim):
            raise ShapeError(f"layer {layer} V shape {v.shape} inconsistent")

    for layer, (k, v) in enumerate(zip(new_k, new_v)):
        for side, arr in (("k", k), ("v", v)):
            packed, scales, biases = quantize_array(
                np.asarray(arr, dtype=np.float32), spec.group_size
            )
            stacked = batch.layers[layer][side]
            stacked.packed = np.concatenate([stacked.packed, packed], axis=2)
            stacked.scales = np.concatenate([stacked.scales, scales], axis=2)
            stacked.biases = np.concatenate([stacked.biases, biases], axis=2)
    batch.valid_lens = [v + t_new for v in batch.valid_lens]
    return batch

