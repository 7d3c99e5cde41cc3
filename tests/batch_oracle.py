"""Batched reference attention over a merged cache, for the tests.

The program never attends: it merges agents' caches into one left-padded
batch and appends decoded tokens (``agentkv.batch``). These helpers let
the tests prove that layout right. ``extract`` splits a batch back into
per-agent blocks, ``build_mask`` states which keys each query sees, and
``oracle_attention`` dequantizes a layer through ``agentkv.codec``,
groups query heads for GQA, applies the causal, sliding-window and
left-pad mask and accumulates in float64. Unlike ``tests/oracles.py``
this code is vectorized and reads the production codec, so it is
checked against those scalar references rather than standing in for
them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from agentkv.batch import BatchCache
from agentkv.blocks import KVBlock
from agentkv.codec import QuantizedTensor, dequantize_array
from agentkv.errors import ShapeError
from agentkv.model_spec import AttentionKind, ModelCacheSpec


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


def build_mask(
    kind: AttentionKind, q_len: int, k_len: int, valid_lens: Sequence[int]
) -> np.ndarray:
    """Additive (batch, 1, 1, q_len, k_len) float64 mask of 0 or -inf.

    Key j is visible to query i (which sits at position k_len - q_len + i)
    when j <= pos, j > pos - window for sliding layers, and j is past the
    row's left pad.
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
    return np.where(visible, 0.0, -np.inf)[:, None, None, :, :]


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
    scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out5 = weights @ v5
    return out5.reshape(
        batch.batch, spec.num_query_heads, q_len, spec.v_head_dim
    ).astype(np.float32)
