"""Codec tests: bfloat16 conversion, packing, quantization bounds, byte math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentkv.codec import (
    QuantizedTensor,
    bf16_bits_to_f32,
    concat_tokens,
    dequantize_tensor,
    f32_to_bf16_bits,
    fp16_bytes,
    pack_codes,
    q4_bytes,
    q4_tensor_bytes,
    quantize_array,
    quantize_tensor,
    slice_tokens,
    unpack_codes,
)
from agentkv.errors import InvalidValueError, ShapeError
from agentkv.model_spec import GLOBAL, ModelCacheSpec, preset

from .oracles import (
    bf16_bits_value,
    bf16_round_bits,
    group_error_bound,
    quantize_group_scalar,
)


def small_spec(heads=2, k_dim=64, v_dim=64, layers=2, block=16, group=8):
    return ModelCacheSpec(
        model_id="test",
        num_layers=layers,
        num_kv_heads=heads,
        num_query_heads=heads,
        k_head_dim=k_dim,
        v_head_dim=v_dim,
        layer_kinds=tuple(GLOBAL for _ in range(layers)),
        block_tokens=block,
        group_size=group,
    )


# ---------------------------------------------------------------------------
# bfloat16


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_bf16_round_matches_scalar_oracle(x):
    ours = int(f32_to_bf16_bits(np.array([x], dtype=np.float32))[0])
    assert ours == bf16_round_bits(x)


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_bf16_bits_round_trip_identity(bits):
    # every bf16 value is exactly representable in f32; converting back must
    # reproduce the bit pattern (modulo NaN payload quieting)
    value = bf16_bits_to_f32(np.array([bits], dtype=np.uint16))[0]
    if np.isnan(value):
        return
    again = int(f32_to_bf16_bits(np.array([value], dtype=np.float32))[0])
    assert again == bits


def test_bf16_known_values():
    cases = {1.0: 0x3F80, -2.0: 0xC000, 0.0: 0x0000, 0.5: 0x3F00}
    for value, bits in cases.items():
        assert int(f32_to_bf16_bits(np.array([value], dtype=np.float32))[0]) == bits
        assert bf16_bits_value(bits) == value


def test_bf16_nan_and_infinity_survive():
    values = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
    bits = f32_to_bf16_bits(values)
    back = bf16_bits_to_f32(bits)
    assert np.isnan(back[0])  # quiet bit keeps NaN from collapsing to inf
    assert back[1] == np.inf and back[2] == -np.inf


def test_bf16_overflow_rounds_to_infinity():
    # past the rounding boundary 2^127 * (2 - 2^-8) ~= 3.39617e38: up to inf
    big = np.array([3.397e38], dtype=np.float32)
    assert bf16_bits_to_f32(f32_to_bf16_bits(big))[0] == np.inf
    # just below the boundary: clamps to the bf16 maximum instead
    below = np.array([3.3895e38], dtype=np.float32)
    assert int(f32_to_bf16_bits(below)[0]) == 0x7F7F


def test_bf16_round_to_nearest_even_tie():
    # 1 + 2^-8 sits exactly between bf16(1.0) and bf16(1 + 2^-7): ties to even
    tie = 1.0 + 2.0 ** -8
    assert int(f32_to_bf16_bits(np.array([tie], dtype=np.float32))[0]) == 0x3F80
    above = 1.0 + 2.0 ** -8 + 2.0 ** -16
    assert int(f32_to_bf16_bits(np.array([above], dtype=np.float32))[0]) == 0x3F81


# ---------------------------------------------------------------------------
# packing


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=8, max_size=64).filter(
        lambda xs: len(xs) % 8 == 0
    )
)
def test_pack_unpack_bijection(codes):
    arr = np.array(codes, dtype=np.uint8)
    assert np.array_equal(unpack_codes(pack_codes(arr)), arr)


def test_pack_nibble_order():
    codes = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.uint8)
    word = int(pack_codes(codes)[0])
    # element j occupies bits [4j, 4j+4)
    assert word == 0x87654321


def test_pack_rejects_ragged():
    with pytest.raises(ShapeError):
        pack_codes(np.zeros(7, dtype=np.uint8))


# ---------------------------------------------------------------------------
# group quantization


def quantize_one_group(values):
    """Quantize one group as a single-row array: (codes, scale, bias)."""
    packed, scale_bits, bias_bits = quantize_array(values[None], group_size=values.size)
    return (
        unpack_codes(packed)[0],
        float(bf16_bits_to_f32(scale_bits)[0, 0]),
        float(bf16_bits_to_f32(bias_bits)[0, 0]),
    )


def test_constant_group_is_degenerate():
    codes, scale, bias = quantize_one_group(np.full(64, 5.0, dtype=np.float32))
    assert np.all(codes == 0)
    assert scale == 1.0
    assert bias == 5.0


def test_group_spanning_exact_steps():
    values = np.tile(np.arange(16, dtype=np.float32), 4)
    codes, scale, bias = quantize_one_group(values)
    assert scale == 1.0
    assert bias == 0.0
    assert np.array_equal(codes, values.astype(np.uint8))


def test_group_rejects_non_finite():
    with pytest.raises(InvalidValueError):
        quantize_one_group(np.array([1.0, np.nan] + [0.0] * 62, dtype=np.float32))
    with pytest.raises(InvalidValueError):
        quantize_one_group(np.array([np.inf] + [0.0] * 63, dtype=np.float32))


def test_random_groups_against_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        values = rng.uniform(-1.0, 1.0, size=64).astype(np.float32)
        codes, scale, bias = quantize_one_group(values)
        o_codes, o_scale_bits, o_bias_bits, o_scale_f32 = quantize_group_scalar(
            values.tolist()
        )
        assert int(f32_to_bf16_bits(np.array([scale], dtype=np.float32))[0]) == o_scale_bits
        assert int(f32_to_bf16_bits(np.array([bias], dtype=np.float32))[0]) == o_bias_bits
        recon = scale * codes.astype(np.float64) + bias
        err = np.abs(values.astype(np.float64) - recon).max()
        assert err <= group_error_bound(o_scale_f32)
        # codes agree with the oracle up to float32-vs-float64 tie placement
        assert np.abs(codes.astype(int) - np.array(o_codes)).max() <= 1


@settings(max_examples=300)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        min_size=8,
        max_size=8,
    )
)
def test_group_round_trip_bound_property(values):
    # centered magnitudes: the bound presumes the group offset is comparable
    # to its range (bias rounding error stays below half a code step)
    arr = np.array(values, dtype=np.float32)
    arr = arr - np.float32(arr.mean())
    codes, scale, bias = quantize_one_group(arr)
    _, _, _, scale_f32 = quantize_group_scalar(arr.tolist())
    recon = scale * codes.astype(np.float64) + bias
    err = np.abs(arr.astype(np.float64) - recon).max()
    if scale_f32 > 1e-30:
        assert err <= group_error_bound(scale_f32)
    assert codes.min() >= 0 and codes.max() <= 15


# ---------------------------------------------------------------------------
# tensor quantization


def test_all_zero_tensor():
    spec = small_spec()
    q = quantize_tensor(np.zeros((2, 4, 64), dtype=np.float32), spec)
    assert np.all(q.packed == 0)
    assert np.all(q.biases == 0)
    assert np.all(bf16_bits_to_f32(q.scales) == 1.0)


def test_ramp_tensor_matches_scalar_oracle():
    spec = small_spec(heads=1, group=64, block=64)
    ramp = np.arange(64, dtype=np.float32).reshape(1, 1, 64)
    q = quantize_tensor(ramp, spec)
    o_codes, o_scale_bits, o_bias_bits, _ = quantize_group_scalar(list(range(64)))
    assert np.array_equal(unpack_codes(q.packed).ravel(), np.array(o_codes, dtype=np.uint8))
    assert int(q.scales.ravel()[0]) == o_scale_bits
    assert int(q.biases.ravel()[0]) == o_bias_bits


def test_round_trip_exactness_on_representable_values():
    spec = small_spec(heads=1, group=8)
    # each group lies on the lattice bias + k*scale with bias=-4, scale=2
    # (both bf16-exact); min and max land on codes 0 and 15
    ks = np.array([0, 15, 1, 2, 4, 8, 3, 5], dtype=np.float32)
    base = -4.0 + 2.0 * ks
    tensor = np.tile(base, (1, 3, 8)).reshape(1, 3, 64)
    q = quantize_tensor(tensor, spec)
    assert np.array_equal(dequantize_tensor(q), tensor)


def test_constant_tensor_round_trip_exact():
    spec = small_spec()
    tensor = np.full((2, 5, 64), 5.0, dtype=np.float32)
    assert np.array_equal(dequantize_tensor(quantize_tensor(tensor, spec)), tensor)


def test_tensor_round_trip_bound():
    spec = small_spec(heads=3, k_dim=64, group=8)
    rng = np.random.default_rng(11)
    tensor = rng.standard_normal((3, 17, 64)).astype(np.float32)
    q = quantize_tensor(tensor, spec)
    recon = dequantize_tensor(q)
    groups = tensor.reshape(3, 17, 8, 8)
    scale_f32 = (groups.max(-1) - groups.min(-1)) / np.float32(15.0)
    err = np.abs(recon - tensor).reshape(3, 17, 8, 8).max(-1)
    assert np.all(err <= 0.5 * scale_f32 * (1 + 2.0 ** -7))


def test_quantize_tensor_shape_errors():
    spec = small_spec()
    with pytest.raises(ShapeError):
        quantize_tensor(np.zeros((3, 4, 64), dtype=np.float32), spec)  # wrong heads
    with pytest.raises(ShapeError):
        quantize_tensor(np.zeros((2, 4, 72), dtype=np.float32), spec)  # wrong dim
    with pytest.raises(ShapeError):
        quantize_tensor(np.zeros((2, 64), dtype=np.float32), spec)  # wrong rank


def test_slice_and_concat_round_trip():
    spec = small_spec()
    rng = np.random.default_rng(3)
    tensor = rng.uniform(-2, 2, size=(2, 10, 64)).astype(np.float32)
    q = quantize_tensor(tensor, spec)
    left = slice_tokens(q, 0, 4)
    right = slice_tokens(q, 4, 10)
    assert concat_tokens(left, right).bitwise_equal(q)


def test_quantization_is_per_token_stable():
    # quantizing a concatenation equals concatenating quantizations: the
    # property that makes block refill and batch merging bit-exact
    spec = small_spec()
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(2, 6, 64)).astype(np.float32)
    b = rng.uniform(-1, 1, size=(2, 9, 64)).astype(np.float32)
    whole = quantize_tensor(np.concatenate([a, b], axis=1), spec)
    parts = concat_tokens(quantize_tensor(a, spec), quantize_tensor(b, spec))
    assert whole.bitwise_equal(parts)


# ---------------------------------------------------------------------------
# byte accounting


def test_gemma_per_layer_fp16_bytes():
    spec = preset("gemma3-12b")
    assert fp16_bytes(spec, 4096) // spec.num_layers == 33_554_432


def test_gemma_q4_total_and_ratio():
    spec = preset("gemma3-12b")
    q4 = q4_bytes(spec, 4096)
    fp = fp16_bytes(spec, 4096)
    assert q4 == 432 * 2**20
    assert fp == 1536 * 2**20
    assert q4 / fp == 0.28125


def test_llama_totals():
    spec = preset("llama31-8b")
    assert fp16_bytes(spec, 4096) == 512 * 2**20
    assert q4_bytes(spec, 4096) == 144 * 2**20


def test_deepseek_asymmetric_accounting():
    spec = preset("deepseek-v2-lite-16b")
    fp = fp16_bytes(spec, 4096)
    assert fp == 1080 * 2**20
    # the (1 + 8/g)/4 ratio holds per tensor, so also for asymmetric K/V
    assert q4_bytes(spec, 4096) / fp == 0.28125


def test_q4_tensor_bytes_matches_array_sizes():
    spec = small_spec()
    q = quantize_tensor(np.zeros((2, 7, 64), dtype=np.float32), spec)
    assert q.nbytes == q4_tensor_bytes(2, 7, 64, spec.group_size)


def test_zero_token_accounting():
    spec = preset("gemma3-12b")
    assert q4_bytes(spec, 0) == 0
    assert fp16_bytes(spec, 0) == 0


def test_quantized_tensor_validation():
    with pytest.raises(ShapeError):
        QuantizedTensor(
            heads=1,
            tokens=1,
            dim=64,
            packed=np.zeros((1, 1, 7), dtype=np.uint32),
            scales=np.zeros((1, 1, 1), dtype=np.uint16),
            biases=np.zeros((1, 1, 1), dtype=np.uint16),
            group_size=64,
        )
