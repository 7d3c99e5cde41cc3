"""Independent reference implementations used to verify the engine.

Everything here is deliberately written the slow, obvious way (scalar
struct-based float handling, per-position loops, plain-list simulations)
and must stay decoupled from the production code paths it checks. The one
vectorized piece is the frozen array codec, the byte-level reference for
the fast one.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from agentkv.errors import InvalidValueError, ShapeError


# ---------------------------------------------------------------------------
# bfloat16 and group quantization, scalar route


def bf16_round_bits(x: float) -> int:
    """Round a float to bfloat16, returning the 16-bit pattern."""
    bits = struct.unpack("<I", struct.pack("<f", x))[0]
    if (bits & 0x7FFFFFFF) > 0x7F800000:  # NaN
        return ((bits >> 16) | 0x0040) & 0xFFFF
    lower = bits & 0xFFFF
    upper = bits >> 16
    if lower > 0x8000 or (lower == 0x8000 and (upper & 1)):
        upper += 1
    return upper & 0xFFFF


def bf16_bits_value(bits: int) -> float:
    """The float value of a bfloat16 bit pattern."""
    return struct.unpack("<f", struct.pack("<I", (bits & 0xFFFF) << 16))[0]


def as_f32(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


def quantize_group_scalar(values: list[float]) -> tuple[list[int], int, int, float]:
    """Scalar re-implementation of group quantization.

    Returns (codes, scale_bits, bias_bits, scale_f32) where scale_f32 is the
    pre-rounding float32 step used in the reconstruction error bound.
    """
    vals = [as_f32(v) for v in values]
    vmin = min(vals)
    vmax = max(vals)
    scale_f32 = as_f32(as_f32(vmax - vmin) / 15.0)
    bias_bits = bf16_round_bits(vmin)
    scale_bits = bf16_round_bits(scale_f32)
    if (scale_bits & 0x7FFF) == 0:  # zero or sub-bf16 range: degenerate
        return [0] * len(vals), 0x3F80, bias_bits, scale_f32
    scale = bf16_bits_value(scale_bits)
    bias = bf16_bits_value(bias_bits)
    codes = []
    for v in vals:
        q = as_f32(as_f32(v - bias) / scale)
        # round() is round-half-to-even in Python
        code = int(round(q))
        codes.append(min(15, max(0, code)))
    return codes, scale_bits, bias_bits, scale_f32


def group_error_bound(scale_f32: float) -> float:
    """Maximum allowed |v - v_hat| for a group: 0.5 * scale * (1 + 2^-7)."""
    return 0.5 * scale_f32 * (1.0 + 2.0 ** -7)


# ---------------------------------------------------------------------------
# bfloat16 and group quantization, array route (frozen reference)
#
# The straightforward vectorized codec, kept unchanged as the byte-level
# reference for agentkv.codec: np.min/np.max per group, a uint32 upcast
# and bitwise_or.reduce for packing. It is vectorized, not scalar, so
# equivalence can be checked on full-size chunks.

_REF_BF16_ONE = np.uint16(0x3F80)


def reference_f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    rounded = (u + np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    is_nan = (u & np.uint32(0x7FFFFFFF)) > np.uint32(0x7F800000)
    out = np.where(is_nan, (u >> np.uint32(16)) | np.uint32(0x0040), rounded)
    return out.astype(np.uint16)


def reference_bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    shifted = np.ascontiguousarray(bits, dtype=np.uint16).astype(np.uint32) << np.uint32(16)
    return shifted.view(np.float32)


def reference_pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes along the last axis, 8 per uint32 word."""
    if codes.shape[-1] % 8 != 0:
        raise ShapeError(f"last axis must be a multiple of 8, got {codes.shape[-1]}")
    c = codes.reshape(*codes.shape[:-1], codes.shape[-1] // 8, 8).astype(np.uint32)
    shifts = (np.arange(8, dtype=np.uint32) * 4).astype(np.uint32)
    return np.bitwise_or.reduce(c << shifts, axis=-1).astype(np.uint32)


def _reference_check_bf16_finite(bits: np.ndarray, what: str) -> None:
    if np.any((bits & np.uint16(0x7F80)) == np.uint16(0x7F80)):
        raise InvalidValueError(f"{what} overflows bfloat16 range")


def reference_quantize_array(
    values: np.ndarray, group_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(packed, scale_bits, bias_bits) for an (..., dim) float array."""
    v = np.asarray(values)
    if v.ndim < 1:
        raise ShapeError("values must have at least one axis")
    dim = v.shape[-1]
    if dim % 8 != 0 or dim % group_size != 0:
        raise ShapeError(
            f"last axis ({dim}) must be a multiple of 8 and of group_size ({group_size})"
        )
    v = v.astype(np.float32, copy=False)
    if not np.isfinite(v).all():
        raise InvalidValueError("values must be finite")

    groups = v.reshape(*v.shape[:-1], dim // group_size, group_size)
    vmin = groups.min(axis=-1)
    vmax = groups.max(axis=-1)
    scale_f32 = ((vmax - vmin) / np.float32(15.0)).astype(np.float32)

    bias_bits = reference_f32_to_bf16_bits(vmin)
    scale_bits = reference_f32_to_bf16_bits(scale_f32)
    # A range below the smallest bfloat16 subnormal rounds to scale 0; fold
    # it into the degenerate rule rather than storing a zero scale.
    degenerate = (scale_bits & np.uint16(0x7FFF)) == 0
    scale_bits = np.where(degenerate, _REF_BF16_ONE, scale_bits)
    _reference_check_bf16_finite(scale_bits, "group scale")
    _reference_check_bf16_finite(bias_bits, "group bias")

    scale = reference_bf16_bits_to_f32(scale_bits)[..., None]
    bias = reference_bf16_bits_to_f32(bias_bits)[..., None]
    codes = np.clip(np.rint((groups - bias) / scale), 0.0, 15.0).astype(np.uint8)
    codes = np.where(degenerate[..., None], np.uint8(0), codes)
    packed = reference_pack_codes(codes.reshape(*v.shape[:-1], dim))
    return packed, scale_bits, bias_bits


# ---------------------------------------------------------------------------
# Block filling


def simulate_block_fill(append_sizes: list[int], block_tokens: int) -> list[int]:
    """Token counts per block after a sequence of appends, by plain list ops."""
    tokens: list[int] = []
    for size in append_sizes:
        tokens.extend([1] * size)
    blocks = []
    for start in range(0, len(tokens), block_tokens):
        blocks.append(len(tokens[start : start + block_tokens]))
    return blocks


# ---------------------------------------------------------------------------
# Attention reference, one sequence at a time


def reference_attention_single(q, k, v, n_rep: int, window: int | None):
    """Per-position softmax attention for one unbatched agent.

    q: (query_heads, q_len, dk); k: (kv_heads, k_len, dk); v: (kv_heads,
    k_len, dv). Queries occupy the final q_len positions of the sequence.
    Pure-Python loops over heads and positions with float64 accumulation.
    """
    query_heads = len(q)
    q_len = len(q[0])
    kv_heads = len(k)
    k_len = len(k[0])
    dk = len(q[0][0])
    dv = len(v[0][0])
    inv_sqrt = 1.0 / math.sqrt(dk)
    out = [[[0.0] * dv for _ in range(q_len)] for _ in range(query_heads)]
    for hq in range(query_heads):
        hk = hq // n_rep
        for i in range(q_len):
            pos = k_len - q_len + i
            lo = 0 if window is None else max(0, pos - window + 1)
            scores = []
            for j in range(lo, pos + 1):
                s = 0.0
                for t in range(dk):
                    s += float(q[hq][i][t]) * float(k[hk][j][t])
                scores.append(s * inv_sqrt)
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            denom = sum(exps)
            for idx, j in enumerate(range(lo, pos + 1)):
                w = exps[idx] / denom
                for t in range(dv):
                    out[hq][i][t] += w * float(v[hk][j][t])
    return out


def mask_visible(
    window: int | None, q_len: int, k_len: int, valid_len: int, i: int, j: int
) -> bool:
    """Closed-form visibility predicate for one (query, key) pair."""
    pos = k_len - q_len + i
    if j > pos:
        return False
    if window is not None and j <= pos - window:
        return False
    if j < k_len - valid_len:
        return False
    return True


# ---------------------------------------------------------------------------
# Prefix matching


def common_prefix_scalar(a: str, b: str) -> int:
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def match_brute_force(
    transcript: str, char_offsets: list[int], prompt: str, block_tokens: int
) -> tuple[str, int, int, int, str]:
    """Reference verdict computation: (verdict, common, reuse_tokens,
    reuse_blocks, suffix)."""
    token_count = len(char_offsets)
    c = common_prefix_scalar(transcript, prompt)
    if len(transcript) == 0:
        return "diverge", c, 0, 0, prompt
    if c == len(transcript) == len(prompt):
        return "exact", c, token_count, token_count // block_tokens, ""
    if c == len(transcript):
        return "extend", c, token_count, token_count // block_tokens, prompt[c:]
    if c / len(transcript) >= 0.5:
        ends = char_offsets[1:] + [len(transcript)]
        whole = 0
        for idx in range(token_count):
            if ends[idx] <= c:
                whole = idx + 1
            else:
                break
        blocks = whole // block_tokens
        reuse = blocks * block_tokens
        offsets_ext = char_offsets + [len(transcript)]
        return "extend", c, reuse, blocks, prompt[offsets_ext[reuse]:]
    return "diverge", c, 0, 0, prompt
