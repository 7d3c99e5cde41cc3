"""Dense left-padded view of a batch and reference attention over it.

The program never builds a dense batch: ``agentkv.batch.merge`` only
describes the rows, whose live caches hold the pool's blocks. These
helpers build, from ``batch.caches``, the left-padded layout a dense
attention kernel would read (rows align at the right edge; a row's first
``padded_len - valid_lens[row]`` positions hold codes 0, scale 1 and
bias 0, which dequantize to zero) and prove it right. ``padded_side``
stacks one layer's K or V, ``extract`` splits that view back into
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

_FILLER_SCALE_BITS = np.uint16(0x3F80)  # bf16 1.0


def padded_side(
    batch: BatchCache, spec: ModelCacheSpec, layer: int, side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(packed, scales, biases) of one layer's K or V for every row.

    Shapes are (batch, heads, padded_len, dim/8) and
    (batch, heads, padded_len, dim/group_size); shorter rows are
    left-padded with filler that dequantizes to zero.
    """
    for row, cache in enumerate(batch.caches):
        if cache.token_count != batch.valid_lens[row]:
            raise ShapeError(
                f"row {row} cache holds {cache.token_count} tokens, "
                f"the batch says {batch.valid_lens[row]}"
            )
    dim = spec.k_head_dim if side == "k" else spec.v_head_dim
    shape = (batch.batch, spec.num_kv_heads, batch.padded_len)
    packed = np.zeros(shape + (dim // 8,), dtype=np.uint32)
    scales = np.full(shape + (dim // spec.group_size,), _FILLER_SCALE_BITS, dtype=np.uint16)
    biases = np.zeros(shape + (dim // spec.group_size,), dtype=np.uint16)
    for row, cache in enumerate(batch.caches):
        start = batch.padded_len - cache.token_count
        for block in cache.blocks[layer]:
            tensor = getattr(block, side)
            stop = start + tensor.tokens
            packed[row, :, start:stop] = tensor.packed
            scales[row, :, start:stop] = tensor.scales
            biases[row, :, start:stop] = tensor.biases
            start = stop
    return packed, scales, biases


def extract(batch: BatchCache, spec: ModelCacheSpec) -> list[list[list[KVBlock]]]:
    """Split the padded view back into per-agent, per-layer block lists."""
    views = [
        {side: padded_side(batch, spec, layer, side) for side in ("k", "v")}
        for layer in range(spec.num_layers)
    ]
    out = []
    padded = batch.padded_len
    for row in range(batch.batch):
        valid = batch.valid_lens[row]
        start = padded - valid
        agent_layers = []
        for layer in views:
            blocks = []
            for begin in range(0, valid, spec.block_tokens):
                end = min(begin + spec.block_tokens, valid)
                sl = slice(start + begin, start + end)
                tensors = {}
                for side, (packed, scales, biases) in layer.items():
                    tensors[side] = QuantizedTensor(
                        heads=spec.num_kv_heads,
                        tokens=end - begin,
                        dim=spec.k_head_dim if side == "k" else spec.v_head_dim,
                        packed=packed[row, :, sl].copy(),
                        scales=scales[row, :, sl].copy(),
                        biases=biases[row, :, sl].copy(),
                        group_size=spec.group_size,
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
    """Reference attention over a batch's padded view for one layer.

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

    k = dequantize_array(*padded_side(batch, spec, layer, "k"), spec.group_size)
    v = dequantize_array(*padded_side(batch, spec, layer, "v"), spec.group_size)
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
