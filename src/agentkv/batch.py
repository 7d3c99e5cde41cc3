"""Batched quantized caches: merge, append, split, and oracle attention.

Several agents' caches merge into one left-padded batch (rows align at
the right edge, so decode appends uniformly). Padding positions hold a
deterministic filler (codes 0, scale 1, bias 0) that dequantizes to zero;
masks make them invisible. The attention here is a reference path, not a
production kernel: it dequantizes, groups query heads for GQA, applies
the causal/sliding-window/pad mask, and accumulates in float64. Its job
is to prove batched results equal unbatched ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import AgentCache, KVBlock
from .codec import QuantizedTensor, dequantize_array, quantize_array
from .errors import InvalidArgumentError, ShapeError, SpecMismatchError
from .model_spec import AttentionKind, ModelCacheSpec, spec_fingerprint

__all__ = [
    "AttentionMask",
    "BatchCache",
    "build_mask",
    "extract",
    "merge",
    "oracle_attention",
    "update_and_fetch",
]

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

    def pad_start(self, row: int) -> int:
        return self.padded_len - self.valid_lens[row]


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


def extract(batch: BatchCache, spec: ModelCacheSpec) -> list[list[list[KVBlock]]]:
    """Split back into per-agent, per-layer block lists with padding removed."""
    out = []
    padded = batch.padded_len
    for row in range(batch.batch):
        valid = batch.valid_lens[row]
        start = padded - valid
        agent_layers = []
        for layer in batch.layers:
            blocks = []
            for begin in range(0, valid, spec.block_tokens):
                end = min(begin + spec.block_tokens, valid)
                tensors = {}
                for side in ("k", "v"):
                    sq = layer[side]
                    sl = slice(start + begin, start + end)
                    tensors[side] = QuantizedTensor(
                        heads=spec.num_kv_heads,
                        tokens=end - begin,
                        dim=sq.dim,
                        packed=sq.packed[row, :, sl].copy(),
                        scales=sq.scales[row, :, sl].copy(),
                        biases=sq.biases[row, :, sl].copy(),
                        group_size=sq.group_size,
                    )
                blocks.append(KVBlock(**tensors))
            agent_layers.append(blocks)
        out.append(agent_layers)
    return out


@dataclass(frozen=True)
class AttentionMask:
    """Additive mask combining causality, window, and left-pad validity."""

    kind: AttentionKind
    q_len: int
    k_len: int
    valid_lens: tuple[int, ...]
    additive: np.ndarray  # (batch, 1, 1, q_len, k_len) float64; 0 or -inf


def build_mask(
    kind: AttentionKind, q_len: int, k_len: int, valid_lens: Sequence[int]
) -> AttentionMask:
    """Visibility of key j to query i (query i sits at position k_len - q_len + i):
    j <= pos, and j > pos - window for sliding layers, and j past the row's pad.
    """
    if q_len > k_len:
        raise ShapeError(f"q_len ({q_len}) cannot exceed k_len ({k_len})")
    i = np.arange(q_len)[:, None]
    j = np.arange(k_len)[None, :]
    pos = k_len - q_len + i
    visible = j <= pos
    if kind.is_sliding:
        visible = visible & (j > pos - kind.window_tokens)
    pad_start = (k_len - np.asarray(valid_lens, dtype=np.int64))[:, None, None]
    visible = visible[None, :, :] & (j[None, :, :] >= pad_start)
    additive = np.where(visible, 0.0, -np.inf)[:, None, None, :, :]
    return AttentionMask(
        kind=kind,
        q_len=q_len,
        k_len=k_len,
        valid_lens=tuple(int(v) for v in valid_lens),
        additive=additive,
    )


def oracle_attention(
    q: np.ndarray, batch: BatchCache, layer: int, spec: ModelCacheSpec
) -> np.ndarray:
    """Reference attention over a merged batch for one layer.

    q is float32 (batch, query_heads, q_len, k_head_dim); queries occupy
    the final q_len positions of every row. Dequantizes the layer's K/V,
    groups query heads as (batch, kv_heads, n_rep, q_len, dim), applies
    softmax(QK^T / sqrt(d) + mask) V with float64 accumulation, and
    returns float32 (batch, query_heads, q_len, v_head_dim).
    """
    if not 0 <= layer < spec.num_layers:
        raise ShapeError(f"layer {layer} out of range")
    q = np.asarray(q)
    expected = (batch.batch, spec.num_query_heads, q.shape[2] if q.ndim == 4 else -1,
                spec.k_head_dim)
    if q.ndim != 4 or q.shape != expected:
        raise ShapeError(f"q shape {q.shape} inconsistent with spec/batch")
    q_len = q.shape[2]
    if q_len < 1:
        raise ShapeError("q_len must be >= 1")
    if q_len > min(batch.valid_lens):
        raise ShapeError(
            "queries would fall inside a row's padding; q_len must not exceed "
            "the shortest valid length"
        )

    sq_k = batch.layers[layer]["k"]
    sq_v = batch.layers[layer]["v"]
    k = dequantize_array(sq_k.packed, sq_k.scales, sq_k.biases, sq_k.group_size)
    v = dequantize_array(sq_v.packed, sq_v.scales, sq_v.biases, sq_v.group_size)
    k_len = batch.padded_len

    n_rep = spec.n_rep
    q5 = q.astype(np.float64).reshape(
        batch.batch, spec.num_kv_heads, n_rep, q_len, spec.k_head_dim
    )
    k5 = k.astype(np.float64)[:, :, None, :, :]
    v5 = v.astype(np.float64)[:, :, None, :, :]
    mask = build_mask(spec.layer_kinds[layer], q_len, k_len, batch.valid_lens)

    scores = q5 @ k5.swapaxes(-1, -2) / np.sqrt(np.float64(spec.k_head_dim))
    scores = scores + mask.additive
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out5 = weights @ v5
    return out5.reshape(
        batch.batch, spec.num_query_heads, q_len, spec.v_head_dim
    ).astype(np.float32)
