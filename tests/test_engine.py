"""Synthetic engine tests: determinism, alignment, reentrancy detection."""

import numpy as np

from agentkv.batch import merge
from agentkv.block_pool import BlockPool
from agentkv.engine import SyntheticEngine

from .helpers import append_random, tiny_spec


def test_tokenize_fixed_width_offsets():
    engine = SyntheticEngine(tiny_spec(), seed=0)
    ids, offsets = engine.tokenize("abcdefghij")  # 10 chars -> 3 tokens
    assert len(ids) == 3
    assert offsets == [0, 4, 8]
    assert engine.tokenize("")[0] == []


def test_tokenize_deterministic_and_content_sensitive():
    engine = SyntheticEngine(tiny_spec(), seed=0)
    a1, _ = engine.tokenize("same text here")
    a2, _ = engine.tokenize("same text here")
    b, _ = engine.tokenize("other text here")
    assert a1 == a2
    assert a1 != b


def test_prefill_chunk_returns_one_stacked_k_and_v():
    spec = tiny_spec(layers=3, heads=2, k_dim=16, v_dim=8, group=8)
    k, v = SyntheticEngine(spec, seed=3).prefill_chunk("agent", list(range(5)), 0)
    assert k.shape == (3, 2, 5, 16) and k.dtype == np.float32
    assert v.shape == (3, 2, 5, 8) and v.dtype == np.float32


def test_kv_independent_of_chunk_boundaries():
    spec = tiny_spec(layers=2)
    engine = SyntheticEngine(spec, seed=3)
    whole_k, whole_v = engine.prefill_chunk("agent", list(range(12)), 0)
    first_k, first_v = engine.prefill_chunk("agent", list(range(5)), 0)
    rest_k, rest_v = engine.prefill_chunk("agent", list(range(7)), 5)
    for layer in range(spec.num_layers):
        k_joined = np.concatenate([first_k[layer], rest_k[layer]], axis=1)
        v_joined = np.concatenate([first_v[layer], rest_v[layer]], axis=1)
        assert np.array_equal(whole_k[layer], k_joined)
        assert np.array_equal(whole_v[layer], v_joined)


def test_kv_differs_between_agents_layers_and_positions():
    spec = tiny_spec(layers=2)
    engine = SyntheticEngine(spec, seed=3)
    a_k, a_v = engine.prefill_chunk("alice", [0], 0)
    b_k, _ = engine.prefill_chunk("bob", [0], 0)
    assert not np.array_equal(a_k[0], b_k[0])
    assert not np.array_equal(a_k[0], a_k[1])  # layers differ
    assert not np.array_equal(a_k[0], a_v[0])  # K and V differ
    a_next_k, _ = engine.prefill_chunk("alice", [0], 1)
    assert not np.array_equal(a_k[0], a_next_k[0])  # positions differ


def test_values_are_bounded():
    spec = tiny_spec()
    engine = SyntheticEngine(spec, seed=1)
    k, v = engine.prefill_chunk("x", list(range(64)), 0)
    assert np.all(np.abs(k) < 1.0) and np.all(np.abs(v) < 1.0)


def test_token_text_matches_tokenizer_width():
    engine = SyntheticEngine(tiny_spec(), seed=0)
    for token_id in (0, 1, 999, 50_256):
        assert len(engine.token_text(token_id)) == engine.token_chars


def test_decode_step_positions_follow_batch_lengths(tmp_path):
    spec = tiny_spec(layers=2, k_dim=16, v_dim=8, group=8)
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 30)
    rng = np.random.default_rng(0)
    append_random(pool, "a", 4, rng)
    append_random(pool, "b", 9, rng)
    engine = SyntheticEngine(spec, seed=5)
    batch = merge([pool.get_cache("a"), pool.get_cache("b")], spec)
    ids1, _, new_k, new_v = engine.decode_step(batch)
    assert new_k.shape == (2, 2, 2, 1, 16) and new_k.dtype == np.float32
    assert new_v.shape == (2, 2, 2, 1, 8) and new_v.dtype == np.float32
    # same lengths -> same next positions -> same tokens on a fresh engine
    ids2, _, _, _ = SyntheticEngine(spec, seed=5).decode_step(batch)
    assert ids1 == ids2
    assert ids1[0] == engine._next_token("a", 4)
    assert ids1[1] == engine._next_token("b", 9)
    # row r holds what a one-token prefill at its position gives
    for row, (agent, position) in enumerate((("a", 4), ("b", 9))):
        k, v = engine.prefill_chunk(agent, [0], position)
        assert np.array_equal(new_k[row], k) and np.array_equal(new_v[row], v)


def test_reentrancy_detector_fires_on_nested_entry():
    engine = SyntheticEngine(tiny_spec(), seed=0)
    with engine._exclusive():
        with engine._exclusive():
            pass
    assert engine.counters.reentrancy_violations == 1


def test_counters_accumulate():
    spec = tiny_spec(layers=2)
    engine = SyntheticEngine(spec, seed=0)
    engine.tokenize("abcd" * 5)
    engine.prefill_chunk("a", list(range(7)), 0)
    assert engine.counters.tokenize_calls == 1
    assert engine.counters.prefill_calls == 1
    assert engine.counters.prefill_tokens == 7
    assert engine.counters.reentrancy_violations == 0
