"""4-bit group-affine quantization with 32-bit word packing.

Values are quantized in contiguous groups along the head dimension: each
group of ``group_size`` elements stores one bfloat16 scale and bias plus a
4-bit code per element. Eight codes pack into one little-endian uint32
word, code j of a word occupying bits [4j, 4j+4).

All arithmetic is float32; scales and biases are stored as raw bfloat16
bit patterns (uint16) so persistence and equality checks are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError, ShapeError
from .model_spec import ModelCacheSpec

__all__ = [
    "QuantizedTensor",
    "bf16_bits_to_f32",
    "concat_tokens",
    "dequantize_array",
    "dequantize_tensor",
    "f32_to_bf16_bits",
    "fp16_bytes",
    "pack_codes",
    "quantize_array",
    "quantize_tensor",
    "q4_bytes",
    "q4_tensor_bytes",
    "slice_tokens",
    "unpack_codes",
]

_BF16_ONE = np.uint16(0x3F80)


def f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16 bit patterns (round-to-nearest-even).

    bfloat16 is the top 16 bits of IEEE-754 binary32; rounding adds half an
    ulp of the 16-bit target and breaks ties toward the even truncation.
    NaN inputs keep their payload with the quiet bit forced so they cannot
    collapse to infinity.
    """
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    rounded = (u + np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    is_nan = (u & np.uint32(0x7FFFFFFF)) > np.uint32(0x7F800000)
    out = np.where(is_nan, (u >> np.uint32(16)) | np.uint32(0x0040), rounded)
    return out.astype(np.uint16)


def bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Expand bfloat16 bit patterns to float32 exactly (pad 16 zero bits)."""
    shifted = np.ascontiguousarray(bits, dtype=np.uint16).astype(np.uint32) << np.uint32(16)
    return shifted.view(np.float32)


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes along the last axis, 8 per uint32 word."""
    if codes.shape[-1] % 8 != 0:
        raise ShapeError(f"last axis must be a multiple of 8, got {codes.shape[-1]}")
    c = codes.reshape(*codes.shape[:-1], codes.shape[-1] // 8, 8).astype(np.uint32)
    shifts = (np.arange(8, dtype=np.uint32) * 4).astype(np.uint32)
    return np.bitwise_or.reduce(c << shifts, axis=-1).astype(np.uint32)


def unpack_codes(packed: np.ndarray) -> np.ndarray:
    """Inverse of pack_codes: uint32 words back to 4-bit codes."""
    shifts = (np.arange(8, dtype=np.uint32) * 4).astype(np.uint32)
    codes = (packed[..., None] >> shifts) & np.uint32(0xF)
    return codes.reshape(*packed.shape[:-1], packed.shape[-1] * 8).astype(np.uint8)


def _check_bf16_finite(bits: np.ndarray, what: str) -> None:
    if np.any((bits & np.uint16(0x7F80)) == np.uint16(0x7F80)):
        raise InvalidValueError(f"{what} overflows bfloat16 range")


def quantize_array(values: np.ndarray, group_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize an (..., dim) float array in groups along the last axis.

    Returns (packed, scale_bits, bias_bits) with shapes (..., dim/8),
    (..., dim/group_size), (..., dim/group_size).

    Per group: bias = bf16(min), scale = bf16((max - min) / 15) and
    code = clamp(round_half_even((v - bias) / scale), 0, 15). A degenerate
    group (max == min, or a range too small for bfloat16) stores scale 1
    and all-zero codes, so stored scales are always strictly positive.
    """
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

    bias_bits = f32_to_bf16_bits(vmin)
    scale_bits = f32_to_bf16_bits(scale_f32)
    # A range below the smallest bfloat16 subnormal rounds to scale 0; fold
    # it into the degenerate rule rather than storing a zero scale.
    degenerate = (scale_bits & np.uint16(0x7FFF)) == 0
    scale_bits = np.where(degenerate, _BF16_ONE, scale_bits)
    _check_bf16_finite(scale_bits, "group scale")
    _check_bf16_finite(bias_bits, "group bias")

    scale = bf16_bits_to_f32(scale_bits)[..., None]
    bias = bf16_bits_to_f32(bias_bits)[..., None]
    codes = np.clip(np.rint((groups - bias) / scale), 0.0, 15.0).astype(np.uint8)
    codes = np.where(degenerate[..., None], np.uint8(0), codes)
    packed = pack_codes(codes.reshape(*v.shape[:-1], dim))
    return packed, scale_bits, bias_bits


def dequantize_array(
    packed: np.ndarray,
    scale_bits: np.ndarray,
    bias_bits: np.ndarray,
    group_size: int,
) -> np.ndarray:
    """Reconstruct float32 values: scale * code + bias per element."""
    dim = packed.shape[-1] * 8
    codes = unpack_codes(packed).astype(np.float32)
    groups = codes.reshape(*codes.shape[:-1], dim // group_size, group_size)
    scale = bf16_bits_to_f32(scale_bits)[..., None]
    bias = bf16_bits_to_f32(bias_bits)[..., None]
    return (scale * groups + bias).reshape(*codes.shape[:-1], dim).astype(np.float32)


@dataclass
class QuantizedTensor:
    """Packed 4-bit codes plus per-group bfloat16 scale/bias.

    Logical value shape is (heads, tokens, dim); ``packed`` holds
    (heads, tokens, dim/8) uint32 words and ``scales``/``biases`` hold
    (heads, tokens, dim/group_size) bfloat16 bit patterns as uint16.
    """

    heads: int
    tokens: int
    dim: int
    packed: np.ndarray
    scales: np.ndarray
    biases: np.ndarray
    group_size: int

    def __post_init__(self) -> None:
        if self.dim % 8 != 0 or self.dim % self.group_size != 0:
            raise ShapeError(
                f"dim ({self.dim}) must be a multiple of 8 and of group_size ({self.group_size})"
            )
        expected_packed = (self.heads, self.tokens, self.dim // 8)
        expected_groups = (self.heads, self.tokens, self.dim // self.group_size)
        if self.packed.shape != expected_packed or self.packed.dtype != np.uint32:
            raise ShapeError(
                f"packed must be uint32 {expected_packed}, got "
                f"{self.packed.dtype} {self.packed.shape}"
            )
        for name in ("scales", "biases"):
            arr = getattr(self, name)
            if arr.shape != expected_groups or arr.dtype != np.uint16:
                raise ShapeError(
                    f"{name} must be uint16 {expected_groups}, got {arr.dtype} {arr.shape}"
                )

    @property
    def nbytes(self) -> int:
        return self.packed.size * 4 + self.scales.size * 2 + self.biases.size * 2

    def bitwise_equal(self, other: QuantizedTensor) -> bool:
        return (
            self.heads == other.heads
            and self.tokens == other.tokens
            and self.dim == other.dim
            and self.group_size == other.group_size
            and np.array_equal(self.packed, other.packed)
            and np.array_equal(self.scales, other.scales)
            and np.array_equal(self.biases, other.biases)
        )


def quantize_tensor(values: np.ndarray, spec: ModelCacheSpec) -> QuantizedTensor:
    """Quantize a (heads, tokens, dim) float32 tensor under a model spec."""
    v = np.asarray(values)
    if v.ndim != 3:
        raise ShapeError(f"expected (heads, tokens, dim), got shape {v.shape}")
    heads, tokens, dim = v.shape
    if heads != spec.num_kv_heads:
        raise ShapeError(f"expected {spec.num_kv_heads} heads, got {heads}")
    if dim not in (spec.k_head_dim, spec.v_head_dim):
        raise ShapeError(
            f"dim {dim} matches neither k_head_dim ({spec.k_head_dim}) nor "
            f"v_head_dim ({spec.v_head_dim})"
        )
    packed, scales, biases = quantize_array(v, spec.group_size)
    return QuantizedTensor(
        heads=heads,
        tokens=tokens,
        dim=dim,
        packed=packed,
        scales=scales,
        biases=biases,
        group_size=spec.group_size,
    )


def dequantize_tensor(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the (heads, tokens, dim) float32 tensor."""
    return dequantize_array(q.packed, q.scales, q.biases, q.group_size)


def slice_tokens(q: QuantizedTensor, start: int, stop: int) -> QuantizedTensor:
    """Copy a token range out of a quantized tensor."""
    if not (0 <= start <= stop <= q.tokens):
        raise ShapeError(f"token slice [{start}, {stop}) out of range for {q.tokens} tokens")
    return QuantizedTensor(
        heads=q.heads,
        tokens=stop - start,
        dim=q.dim,
        packed=q.packed[:, start:stop].copy(),
        scales=q.scales[:, start:stop].copy(),
        biases=q.biases[:, start:stop].copy(),
        group_size=q.group_size,
    )


def concat_tokens(a: QuantizedTensor, b: QuantizedTensor) -> QuantizedTensor:
    """Concatenate two quantized tensors along the token axis."""
    if (a.heads, a.dim, a.group_size) != (b.heads, b.dim, b.group_size):
        raise ShapeError("cannot concatenate quantized tensors with different geometry")
    return QuantizedTensor(
        heads=a.heads,
        tokens=a.tokens + b.tokens,
        dim=a.dim,
        packed=np.concatenate([a.packed, b.packed], axis=1),
        scales=np.concatenate([a.scales, b.scales], axis=1),
        biases=np.concatenate([a.biases, b.biases], axis=1),
        group_size=a.group_size,
    )


def q4_tensor_bytes(heads: int, tokens: int, dim: int, group_size: int) -> int:
    """On-disk/in-memory bytes of one quantized (heads, tokens, dim) tensor."""
    if tokens < 0:
        raise ShapeError("tokens must be non-negative")
    packed = heads * tokens * dim // 2
    per_group = heads * tokens * (dim // group_size)
    return packed + 2 * 2 * per_group


def q4_bytes(spec: ModelCacheSpec, tokens: int) -> int:
    """Quantized K+V cache bytes for `tokens` tokens across all layers."""
    per_layer = q4_tensor_bytes(
        spec.num_kv_heads, tokens, spec.k_head_dim, spec.group_size
    ) + q4_tensor_bytes(spec.num_kv_heads, tokens, spec.v_head_dim, spec.group_size)
    return spec.num_layers * per_layer


def fp16_bytes(spec: ModelCacheSpec, tokens: int) -> int:
    """Unquantized K+V cache bytes for `tokens` tokens across all layers."""
    if tokens < 0:
        raise ShapeError("tokens must be non-negative")
    per_layer = spec.fp_bytes_per_element * spec.num_kv_heads * (
        spec.k_head_dim + spec.v_head_dim
    ) * tokens
    return spec.num_layers * per_layer

