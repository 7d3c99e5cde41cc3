"""Batch tests: the descriptor, its padded view, masks, oracle equivalence."""

import numpy as np
import pytest

from agentkv.batch import merge, update_and_fetch
from agentkv.block_pool import BlockPool
from agentkv.codec import dequantize_tensor
from agentkv.errors import InvalidArgumentError, ShapeError, SpecMismatchError
from agentkv.model_spec import GLOBAL, sliding_window, spec_fingerprint

from .batch_oracle import build_mask, extract, oracle_attention, padded_side
from .helpers import append_random, random_kv_chunk, tiny_spec
from .oracles import mask_visible, reference_attention_single


def pool_with_agents(tmp_path, spec, lengths, seed=0):
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 34)
    rng = np.random.default_rng(seed)
    for index, (agent, t) in enumerate(lengths.items()):
        append_random(pool, agent, t, rng)
    return pool


def agent_kv_f32(cache, layer):
    """Dequantized full-sequence K/V for one agent and layer."""
    blocks = cache.blocks[layer]
    if not blocks:
        return None, None
    k = np.concatenate([dequantize_tensor(b.k) for b in blocks], axis=1)
    v = np.concatenate([dequantize_tensor(b.v) for b in blocks], axis=1)
    return k, v


# ---------------------------------------------------------------------------
# merge / extract


def test_merge_equal_lengths_has_no_filler(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 12, "b": 12})
    batch = merge([pool.get_cache("a"), pool.get_cache("b")], spec)
    assert batch.padded_len == 12
    assert batch.valid_lens == [12, 12]
    assert batch.padded_len - batch.valid_lens[0] == batch.padded_len - batch.valid_lens[1] == 0


def test_merge_left_pads_shorter_rows(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 5, "b": 17})
    batch = merge([pool.get_cache("a"), pool.get_cache("b")], spec)
    assert batch.padded_len == 17
    assert batch.padded_len - batch.valid_lens[0] == 12
    # filler dequantizes to zero
    from agentkv.codec import dequantize_array

    values = dequantize_array(*padded_side(batch, spec, 0, "k"), spec.group_size)
    assert np.all(values[0, :, :12] == 0.0)
    assert not np.all(values[0, :, 12:] == 0.0)


def test_merge_extract_bitwise_identity(tmp_path):
    spec = tiny_spec(layers=3, block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 19, "b": 7}, seed=1)
    caches = [pool.get_cache("a"), pool.get_cache("b")]
    batch = merge(caches, spec)
    restored = extract(batch, spec)
    for cache, layers in zip(caches, restored):
        compared = 0
        for orig_layer, new_layer in zip(cache.blocks, layers):
            assert len(orig_layer) == len(new_layer)
            for ob, nb in zip(orig_layer, new_layer):
                assert ob.token_count == nb.token_count
                assert ob.k.bitwise_equal(nb.k)
                assert ob.v.bitwise_equal(nb.v)
            compared += 1
        assert compared == spec.num_layers


def test_merge_single_agent_identity(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 9})
    cache = pool.get_cache("a")
    [layers] = extract(merge([cache], spec), spec)
    compared = 0
    for orig_layer, new_layer in zip(cache.blocks, layers):
        assert len(orig_layer) == len(new_layer)
        for ob, nb in zip(orig_layer, new_layer):
            assert ob.k.bitwise_equal(nb.k) and ob.v.bitwise_equal(nb.v)
        compared += 1
    assert compared == spec.num_layers


def test_merge_describes_the_pool_caches_without_copying(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 5, "b": 17})
    caches = [pool.get_cache("a"), pool.get_cache("b")]
    batch = merge(caches, spec)
    assert batch.agent_ids == ("a", "b")
    assert all(row is cache for row, cache in zip(batch.caches, caches))
    assert batch.layers == []  # no second copy of the K/V
    k = [np.ones((2, 2, 1, 16), dtype=np.float32)] * spec.num_layers
    v = [np.zeros((2, 2, 1, 16), dtype=np.float32)] * spec.num_layers
    rows = update_and_fetch(batch, k, v, spec)
    assert batch.valid_lens == [6, 18]
    assert len(rows) == 2 and all(len(row) == spec.num_layers for row in rows)
    assert rows[1][0][0].shape == (2, 1, 16)
    assert np.shares_memory(rows[1][0][0], k[0])  # views, not copies
    assert [c.token_count for c in caches] == [5, 17]  # the pool appends, not the batch


def test_merge_rejects_bad_inputs(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 4, "b": 4, "c": 4})
    caches = [pool.get_cache(x) for x in ("a", "b", "c")]
    with pytest.raises(InvalidArgumentError):
        merge([], spec)
    with pytest.raises(InvalidArgumentError):
        merge(caches, spec, max_batch=2)
    other = caches[0]
    other.spec_fingerprint ^= 1
    with pytest.raises(SpecMismatchError):
        merge([other], spec)
    other.spec_fingerprint ^= 1


def test_update_then_extract_equals_sequential_appends(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    rng = np.random.default_rng(2)
    pool_a = BlockPool(spec, tmp_path / "a", budget_bytes=1 << 34)
    pool_b = BlockPool(spec, tmp_path / "b", budget_bytes=1 << 34)
    append_random(pool_a, "a", 11, np.random.default_rng(3))
    append_random(pool_a, "b", 6, np.random.default_rng(4))
    append_random(pool_b, "a", 11, np.random.default_rng(3))
    append_random(pool_b, "b", 6, np.random.default_rng(4))

    batch = merge([pool_a.get_cache("a"), pool_a.get_cache("b")], spec)
    steps = []
    for _ in range(5):  # five single-token decode steps
        per_layer_k = []
        per_layer_v = []
        for _layer in range(spec.num_layers):
            per_layer_k.append(
                rng.uniform(-1, 1, (2, spec.num_kv_heads, 1, spec.k_head_dim)).astype(
                    np.float32
                )
            )
            per_layer_v.append(
                rng.uniform(-1, 1, (2, spec.num_kv_heads, 1, spec.v_head_dim)).astype(
                    np.float32
                )
            )
        rows = update_and_fetch(batch, per_layer_k, per_layer_v, spec)
        for agent, kv in zip(("a", "b"), rows):
            pool_a.append_tokens(agent, kv, [0], "zz", [0])
        steps.append((per_layer_k, per_layer_v))
    assert batch.valid_lens == [16, 11]

    # replay the same tokens as plain per-agent appends
    for per_layer_k, per_layer_v in steps:
        for row, agent in enumerate(("a", "b")):
            kv = [
                (per_layer_k[layer][row], per_layer_v[layer][row])
                for layer in range(spec.num_layers)
            ]
            pool_b.append_tokens(agent, kv, [0], "zz", [0])

    restored = extract(batch, spec)
    for row, agent in enumerate(("a", "b")):
        expected = pool_b.get_cache(agent)
        compared = 0
        for orig_layer, new_layer in zip(expected.blocks, restored[row]):
            assert len(orig_layer) == len(new_layer)
            for ob, nb in zip(orig_layer, new_layer):
                assert ob.k.bitwise_equal(nb.k)
                assert ob.v.bitwise_equal(nb.v)
            compared += 1
        assert compared == spec.num_layers


def test_update_appends_within_quantization_bound(tmp_path):
    spec = tiny_spec(layers=1, block=8, group=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 3, "b": 8})
    batch = merge([pool.get_cache("a"), pool.get_cache("b")], spec)
    rng = np.random.default_rng(5)
    k = [rng.uniform(-1, 1, (2, 2, 1, 16)).astype(np.float32)]
    v = [rng.uniform(-1, 1, (2, 2, 1, 16)).astype(np.float32)]
    for agent, kv in zip(("a", "b"), update_and_fetch(batch, k, v, spec)):
        pool.append_tokens(agent, kv, [0], "zz", [0])
    from agentkv.codec import dequantize_array

    recon = dequantize_array(*padded_side(batch, spec, 0, "k"), spec.group_size)
    appended = recon[:, :, -1, :]
    groups = k[0][:, :, 0, :].reshape(2, 2, 2, 8)
    scale = (groups.max(-1) - groups.min(-1)) / np.float32(15)
    err = np.abs(appended - k[0][:, :, 0, :]).reshape(2, 2, 2, 8).max(-1)
    assert np.all(err <= 0.5 * scale * (1 + 2.0 ** -7) + 1e-12)


def test_update_shape_errors(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 4})
    batch = merge([pool.get_cache("a")], spec)
    good_k = [np.zeros((1, 2, 1, 16), dtype=np.float32)] * 2
    good_v = [np.zeros((1, 2, 1, 16), dtype=np.float32)] * 2
    with pytest.raises(ShapeError):
        update_and_fetch(batch, good_k[:1], good_v, spec)
    with pytest.raises(ShapeError):
        update_and_fetch(batch, [np.zeros((1, 2, 1, 8), dtype=np.float32)] * 2, good_v, spec)
    assert batch.valid_lens == [4]  # a rejected step advances no row


# ---------------------------------------------------------------------------
# masks


def test_causal_mask_is_lower_triangular():
    mask = build_mask(GLOBAL, 4, 4, [4])[0, 0, 0]
    visible = np.isfinite(mask)
    assert np.array_equal(visible, np.tril(np.ones((4, 4), dtype=bool)))


def test_sliding_window_mask_width_two():
    mask = build_mask(sliding_window(2), 4, 4, [4])[0, 0, 0]
    visible = np.isfinite(mask)
    for i in range(4):
        expected = {j for j in (i - 1, i) if j >= 0}
        assert {j for j in range(4) if visible[i, j]} == expected


def test_left_pad_positions_invisible():
    mask = build_mask(GLOBAL, 2, 6, [6, 3])
    row1 = np.isfinite(mask[1, 0, 0])
    assert not row1[:, :3].any()  # first 3 key positions padded out
    row0 = np.isfinite(mask[0, 0, 0])
    assert row0[0, :5].all() and not row0[0, 5]


def test_mask_matches_predicate_exhaustively():
    for window in (None, 1, 3, 17):
        kind = GLOBAL if window is None else sliding_window(window)
        for k_len in (1, 7, 33, 64):
            for q_len in (1, min(5, k_len), k_len):
                valid_lens = [k_len, max(q_len, k_len // 2), max(q_len, 1)]
                mask = build_mask(kind, q_len, k_len, valid_lens)
                for row, valid in enumerate(valid_lens):
                    got = np.isfinite(mask[row, 0, 0])
                    for i in range(q_len):
                        for j in range(k_len):
                            assert got[i, j] == mask_visible(
                                window, q_len, k_len, valid, i, j
                            ), (window, k_len, q_len, row, i, j)


def test_mask_rejects_q_longer_than_k():
    with pytest.raises(ShapeError):
        build_mask(GLOBAL, 5, 4, [4])


# ---------------------------------------------------------------------------
# oracle attention


def test_single_token_single_head_returns_value():
    spec = tiny_spec(layers=1, heads=1, k_dim=8, v_dim=8, block=8, group=8)
    pool = BlockPool(spec, "unused", budget_bytes=1 << 30)
    kv = [(np.ones((1, 1, 8), np.float32), np.full((1, 1, 8), 3.25, np.float32))]
    pool.append_tokens("a", kv, [1], "x", [0])
    batch = merge([pool.get_cache("a")], spec)
    q = np.ones((1, 1, 1, 8), dtype=np.float32)
    out = oracle_attention(q, batch, 0, spec)
    # one visible position: softmax weight 1, output = V exactly
    assert np.array_equal(out, np.full((1, 1, 1, 8), 3.25, dtype=np.float32))


def test_window_wider_than_context_equals_causal(tmp_path):
    spec_w = tiny_spec(layers=1, kinds=[sliding_window(64)], block=8)
    spec_g = tiny_spec(layers=1, kinds=[GLOBAL], block=8)
    rng = np.random.default_rng(8)
    pool_w = BlockPool(spec_w, tmp_path / "w", budget_bytes=1 << 30)
    pool_g = BlockPool(spec_g, tmp_path / "g", budget_bytes=1 << 30)
    kv = random_kv_chunk(spec_w, 10, np.random.default_rng(9))
    for pool in (pool_w, pool_g):
        pool.append_tokens("a", kv, list(range(10)), "x" * 20, list(range(0, 20, 2)))
    q = rng.uniform(-1, 1, (1, 2, 3, 16)).astype(np.float32)
    out_w = oracle_attention(q, merge([pool_w.get_cache("a")], spec_w), 0, spec_w)
    out_g = oracle_attention(q, merge([pool_g.get_cache("a")], spec_g), 0, spec_g)
    assert np.array_equal(out_w, out_g)


def test_batched_equals_unbatched_reference(tmp_path):
    spec = tiny_spec(
        layers=2,
        heads=2,
        query_heads=4,
        k_dim=16,
        v_dim=8,
        block=8,
        group=8,
        kinds=[GLOBAL, sliding_window(5)],
    )
    pool = pool_with_agents(tmp_path, spec, {"a": 13, "b": 21}, seed=10)
    caches = [pool.get_cache("a"), pool.get_cache("b")]
    batch = merge(caches, spec)
    rng = np.random.default_rng(11)
    q_len = 2
    q = rng.uniform(-1, 1, (2, 4, q_len, 16)).astype(np.float32)
    for layer in range(spec.num_layers):
        out = oracle_attention(q, batch, layer, spec)
        window = spec.layer_kinds[layer].window_tokens
        for row, cache in enumerate(caches):
            k, v = agent_kv_f32(cache, layer)
            ref = reference_attention_single(
                q[row].tolist(), k.tolist(), v.tolist(), spec.n_rep, window
            )
            ref = np.asarray(ref, dtype=np.float64)
            np.testing.assert_allclose(out[row], ref, atol=1e-5, rtol=0)


def test_oracle_rejects_queries_in_padding(tmp_path):
    spec = tiny_spec(block=8)
    pool = pool_with_agents(tmp_path, spec, {"a": 2, "b": 9})
    batch = merge([pool.get_cache("a"), pool.get_cache("b")], spec)
    q = np.zeros((2, 2, 3, 16), dtype=np.float32)  # q_len 3 > min valid 2
    with pytest.raises(ShapeError):
        oracle_attention(q, batch, 0, spec)
