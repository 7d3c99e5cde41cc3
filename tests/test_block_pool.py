"""Block pool tests: blocking arithmetic, LRU, budget, isolation."""

import gc
import tracemalloc

import numpy as np
import pytest

from agentkv import block_pool
from agentkv.block_pool import BlockPool
from agentkv.blocks import CacheState
from agentkv.codec import q4_bytes
from agentkv.errors import (
    InvalidArgumentError,
    InvalidValueError,
    NotFoundError,
    ShapeError,
)

from .helpers import append_random, cache_checksum, random_kv_chunk, tiny_spec
from .oracles import simulate_block_fill


@pytest.fixture
def pool(tmp_path):
    return BlockPool(tiny_spec(block=256), tmp_path, budget_bytes=1 << 30)


def big_pool(tmp_path, budget):
    return BlockPool(tiny_spec(block=256), tmp_path, budget_bytes=budget)


def test_append_300_tokens_makes_blocks_256_44(pool):
    rng = np.random.default_rng(0)
    total = append_random(pool, "a", 300, rng)
    assert total == 300
    cache = pool.get_cache("a")
    assert cache.block_token_counts() == [256, 44]


def test_append_fills_tail_before_new_block(pool):
    rng = np.random.default_rng(1)
    append_random(pool, "a", 300, rng)
    append_random(pool, "a", 212, rng)
    cache = pool.get_cache("a")
    assert cache.block_token_counts() == [256, 256]
    assert cache.token_count == 512


@pytest.mark.parametrize("sizes", [[1], [256], [257], [5, 3, 250], [300, 212, 100]])
def test_block_fill_matches_simulation(tmp_path, sizes):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(2)
    for s in sizes:
        append_random(pool, "a", s, rng)
    cache = pool.get_cache("a")
    assert cache.block_token_counts() == simulate_block_fill(sizes, 256)
    cache.validate(pool.spec.num_layers, pool.spec.block_tokens)


def test_refill_is_bit_identical_to_single_append(tmp_path):
    # appending [a; b] in one call or two must give identical block bytes
    spec = tiny_spec(block=8)
    rng = np.random.default_rng(3)
    kv_a = random_kv_chunk(spec, 5, rng)
    kv_b = random_kv_chunk(spec, 7, rng)
    joined = (np.concatenate([kv_a[0], kv_b[0]], axis=2),
              np.concatenate([kv_a[1], kv_b[1]], axis=2))  # the token axis
    p1 = BlockPool(spec, tmp_path / "p1", budget_bytes=1 << 30)
    p2 = BlockPool(spec, tmp_path / "p2", budget_bytes=1 << 30)
    p1.append_tokens("a", kv_a, list(range(5)), "aaaaa", list(range(5)))
    p1.append_tokens("a", kv_b, list(range(7)), "bbbbbbb", list(range(7)))
    p2.append_tokens("a", joined, list(range(5)) + list(range(7)), "aaaaabbbbbbb",
                     list(range(5)) + [5 + i for i in range(7)])
    assert cache_checksum(p1.get_cache("a")) == cache_checksum(p2.get_cache("a"))


def test_shape_mismatch_rejected(pool):
    rng = np.random.default_rng(4)
    append_random(pool, "a", 3, rng)
    before = cache_checksum(pool.get_cache("a"))
    resident = pool.stats().resident_bytes
    k, v = random_kv_chunk(pool.spec, 4, rng)
    assert pool.spec.num_layers == 2 and pool.spec.k_head_dim == pool.spec.v_head_dim
    # a legacy list of per-layer pairs: with 2 layers and k_dim == v_dim,
    # np.asarray of its first pair would pass for a (2, heads, t, dim) K
    legacy = [(k[0], v[0]), (k[1], v[1])]
    for bad in (
        (k[..., :8], v),  # K head dim
        (k, v[:1]),  # V layers
        (k.tolist(), v),  # not an array
        legacy,
        tuple(legacy),
        (k, v, v),
    ):
        with pytest.raises(ShapeError):
            pool.append_tokens("a", bad, [1, 2, 3, 4], "text")
    with pytest.raises(ShapeError):
        pool.append_tokens("a", (k, v), [1, 2, 3], "text")  # t_new mismatch
    assert cache_checksum(pool.get_cache("a")) == before
    assert pool.get_cache("a").token_count == 3
    assert pool.stats().resident_bytes == resident


def test_get_unknown_agent_raises(pool):
    with pytest.raises(NotFoundError):
        pool.get_cache("ghost")


def test_resident_bytes_match_codec_accounting(pool):
    rng = np.random.default_rng(5)
    append_random(pool, "a", 300, rng)
    append_random(pool, "b", 512, rng)
    expected = q4_bytes(pool.spec, 300) + q4_bytes(pool.spec, 512)
    assert pool.stats().resident_bytes == expected


def test_lru_evicts_least_recently_touched(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(6)
    for agent in ("a", "b", "c"):
        append_random(pool, agent, 16, rng)
    assert pool.evict_lru() == "a"
    # touching b's cache makes... a already evicted; next LRU is b unless touched
    pool.get_cache("b")
    assert pool.evict_lru() == "c"


def test_eviction_and_reload_round_trip(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(8)
    append_random(pool, "a", 300, rng)
    before = cache_checksum(pool.get_cache("a"))
    bytes_before = pool.stats().resident_bytes
    assert pool.evict_lru() == "a"
    st = pool.stats()
    assert st.resident_bytes == 0
    assert st.agents_warm == 1 and st.agents_hot == 0
    assert pool.agent_state("a") is CacheState.WARM

    cache = pool.get_cache("a")
    assert pool.agent_state("a") is CacheState.HOT
    assert cache_checksum(cache) == before
    st = pool.stats()
    assert st.reloads == 1 and st.evictions == 1
    assert st.resident_bytes == bytes_before


def test_budget_enforced_by_auto_eviction(tmp_path):
    spec = tiny_spec(block=256)
    per_agent = q4_bytes(spec, 128)
    pool = BlockPool(spec, tmp_path, budget_bytes=int(per_agent * 2.5))
    rng = np.random.default_rng(9)
    for agent in ("a", "b", "c", "d"):
        append_random(pool, agent, 128, rng)
        assert pool.stats().resident_bytes <= pool.budget_bytes
    st = pool.stats()
    assert st.agents_hot == 2 and st.agents_warm == 2
    assert st.evictions == 2


def test_single_oversized_agent_evicts_itself(tmp_path):
    spec = tiny_spec(block=256)
    pool = BlockPool(spec, tmp_path, budget_bytes=q4_bytes(spec, 64))
    rng = np.random.default_rng(10)
    append_random(pool, "big", 512, rng)
    st = pool.stats()
    assert st.resident_bytes == 0
    assert pool.agent_state("big") is CacheState.WARM


def test_drop_with_delete_disk(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(11)
    append_random(pool, "a", 32, rng)
    pool.save_agent("a")
    pool.drop_agent("a", delete_disk=True)
    with pytest.raises(NotFoundError):
        pool.get_cache("a")
    assert pool.stats().resident_bytes == 0


def test_drop_without_delete_reloads_from_disk(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(12)
    append_random(pool, "a", 32, rng)
    before = cache_checksum(pool.get_cache("a"))
    pool.save_agent("a")
    pool.drop_agent("a", delete_disk=False)
    assert "a" not in pool.known_agents()
    cache = pool.get_cache("a")  # rediscovered from disk
    assert cache_checksum(cache) == before
    assert pool.stats().reloads == 1


def test_drop_unknown_raises(pool):
    with pytest.raises(NotFoundError):
        pool.drop_agent("ghost")


def test_truncate_drops_whole_blocks(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(13)
    append_random(pool, "a", 600, rng)
    cache = pool.get_cache("a")
    assert cache.block_token_counts() == [256, 256, 88]
    pool.truncate_agent("a", 256)
    assert cache.block_token_counts() == [256]
    assert cache.token_count == 256
    assert len(cache.transcript_text) == cache.char_offsets[-1] + 2  # 2 chars per token
    assert pool.stats().resident_bytes == q4_bytes(pool.spec, 256)
    with pytest.raises(InvalidArgumentError):
        pool.truncate_agent("a", 100)  # not block-aligned
    with pytest.raises(InvalidArgumentError):
        pool.truncate_agent("a", 512)  # beyond cached count


def test_truncate_to_zero_empties_agent(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(14)
    append_random(pool, "a", 300, rng)
    pool.truncate_agent("a", 0)
    cache = pool.get_cache("a")
    assert cache.token_count == 0
    assert cache.transcript_text == ""
    assert pool.stats().resident_bytes == 0


def test_isolation_under_mutations(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(15)
    for agent in ("a", "b", "c"):
        append_random(pool, agent, 40, rng)
    sums = {agent: cache_checksum(pool.get_cache(agent)) for agent in ("b", "c")}
    for _ in range(10):
        append_random(pool, "a", 17, rng)
        for agent, digest in sums.items():
            assert cache_checksum(pool.get_cache(agent)) == digest


def test_eviction_failure_keeps_agent_hot(tmp_path, monkeypatch):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(16)
    append_random(pool, "a", 16, rng)

    from agentkv import persistence
    from agentkv.errors import EvictionFailedError, PersistenceError

    def boom(*args, **kwargs):
        raise PersistenceError("disk full")

    monkeypatch.setattr(persistence, "save_agent", boom)
    with pytest.raises(EvictionFailedError):
        pool.evict_lru()
    assert pool.agent_state("a") is CacheState.HOT
    assert pool.stats().evictions == 0


def test_cache_from_other_spec_rejected_on_reload(tmp_path):
    store = tmp_path / "shared"
    spec_a = tiny_spec(layers=2)
    pool_a = BlockPool(spec_a, store, budget_bytes=1 << 30)
    rng = np.random.default_rng(18)
    append_random(pool_a, "agent", 12, rng)
    pool_a.save_agent("agent")

    from agentkv.errors import SpecMismatchError

    spec_b = tiny_spec(layers=2, k_dim=32, v_dim=32)
    pool_b = BlockPool(spec_b, store, budget_bytes=1 << 30)
    with pytest.raises(SpecMismatchError):
        pool_b.get_cache("agent")


def test_bad_agent_id_rejected(pool):
    rng = np.random.default_rng(17)
    kv = random_kv_chunk(pool.spec, 1, rng)
    with pytest.raises(InvalidArgumentError):
        pool.append_tokens("../evil", kv, [1], "t", [0])
    with pytest.raises(InvalidArgumentError):
        pool.append_tokens("", kv, [1], "t", [0])


def test_failed_append_leaves_cache_and_budget_unchanged(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    rng = np.random.default_rng(19)
    append_random(pool, "a", 3, rng)
    before = cache_checksum(pool.get_cache("a"))
    resident = pool.stats().resident_bytes
    kv = random_kv_chunk(pool.spec, 2, rng)
    kv[0][1, 0, 0, 0] = np.nan  # layer 1 K: layer 0 quantizes fine first
    with pytest.raises(InvalidValueError):
        pool.append_tokens("a", kv, [1, 2], "bbbb", [0, 2])
    cache = pool.get_cache("a")
    assert cache_checksum(cache) == before
    assert pool.stats().resident_bytes == resident == cache.nbytes
    cache.validate(pool.spec.num_layers, pool.spec.block_tokens)
    assert pool.evict_lru() == "a"
    assert cache_checksum(pool.get_cache("a")) == before


def test_failed_first_append_registers_nothing(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    kv = random_kv_chunk(pool.spec, 2, np.random.default_rng(20))
    kv[1][0, 0, 0, 0] = np.inf  # layer 0 V
    with pytest.raises(InvalidValueError):
        pool.append_tokens("a", kv, [1, 2], "bbbb", [0, 2])
    assert pool.known_agents() == []
    assert pool.agent_state("a") is CacheState.COLD
    assert pool.evict_lru() is None


def test_append_quantizes_one_layer_at_a_time(tmp_path):
    # one quantize call per side over every layer holds every layer's
    # float transients at once: about 21 layers' worth here, against
    # under 5 (2.3 of them the kept Q4 blocks) layer by layer
    spec = tiny_spec(layers=8, heads=8, k_dim=128, v_dim=128, block=256, group=64)
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 34)
    kv = random_kv_chunk(spec, 512, np.random.default_rng(24))
    layer_bytes = kv[0][0].nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool.append_tokens("a", kv, list(range(512)), "x" * 512)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pool.get_cache("a").token_count == 512
    assert peak < 8 * layer_bytes, peak / layer_bytes


def test_an_append_that_fits_one_block_is_stored_without_a_slice_copy(tmp_path, monkeypatch):
    sliced = []
    real_slice = block_pool.slice_tokens

    def counting_slice(q, start, stop):
        sliced.append((start, stop))
        return real_slice(q, start, stop)

    monkeypatch.setattr(block_pool, "slice_tokens", counting_slice)
    pool = BlockPool(tiny_spec(block=8), tmp_path, budget_bytes=1 << 30)
    rng = np.random.default_rng(25)
    for _ in range(10):  # decoded tokens: fill block 0, then open block 1
        append_random(pool, "a", 1, rng)
    assert sliced == []
    append_random(pool, "a", 10, rng)  # 6 fill the tail, 4 open a block
    assert sliced == [(0, 6), (0, 6), (6, 10), (6, 10)] * 2  # two layers
    assert pool.get_cache("a").block_token_counts() == [8, 8, 4]


def test_drop_clears_an_agent_with_a_corrupt_sidecar(tmp_path):
    pool = big_pool(tmp_path, 1 << 30)
    append_random(pool, "a", 12, np.random.default_rng(21))
    pool.save_agent("a")
    pool.drop_agent("a")
    (tmp_path / "a.meta.json").write_text("{not json", encoding="utf-8")
    pool.drop_agent("a", delete_disk=True)
    assert list(tmp_path.iterdir()) == []
    assert pool.agent_state("a") is CacheState.COLD


def test_invalid_ids_name_no_files_outside_the_cache_dir(tmp_path):
    (tmp_path / "cache").mkdir()
    pool = big_pool(tmp_path / "cache", 1 << 30)
    outside = tmp_path / "outside.meta.json"
    outside.write_text('{"tensor_file": "outside.0000000000000000.safetensors"}\n')
    assert pool.agent_state("../outside") is CacheState.COLD
    with pytest.raises(NotFoundError):
        pool.get_cache("../outside")
    with pytest.raises(NotFoundError):
        pool.drop_agent("../outside", delete_disk=True)
    assert outside.exists()


def test_oversized_agent_reload_is_not_its_own_victim(tmp_path):
    # an agent larger than the whole budget is saved with what the call added
    spec = tiny_spec(block=8)
    pool = BlockPool(spec, tmp_path, budget_bytes=q4_bytes(spec, 4))
    rng = np.random.default_rng(22)
    append_random(pool, "a", 6, rng)
    assert pool.agent_state("a") is CacheState.WARM
    assert append_random(pool, "a", 3, rng) == 9
    st = pool.stats()
    assert st.resident_bytes == 0 and st.agents_hot == 0 and st.agents_warm == 1
    cache = pool.get_cache("a")
    assert cache.token_count == 9 and cache.block_token_counts() == [8, 1]
    pool.truncate_agent("a", 8)
    assert pool.get_cache("a").token_count == 8
    assert pool.stats().resident_bytes == 0


def test_evicted_agents_leave_only_their_ids(tmp_path):
    spec = tiny_spec(layers=1, heads=1, block=64)
    pool = BlockPool(spec, tmp_path, budget_bytes=int(q4_bytes(spec, 900) * 2.5))
    rng = np.random.default_rng(23)

    def append_transcript(agent_id):
        ids = rng.integers(0, 50_000, size=900).tolist()
        kv = random_kv_chunk(spec, 900, rng)
        pool.append_tokens(agent_id, kv, ids, "x" * 1800, list(range(0, 1800, 2)))

    tracemalloc.start()
    try:
        for i in range(3):  # reach the steady state: two resident agents
            append_transcript(f"warmup{i}")
        gc.collect()
        evicted_before = pool.stats().evictions
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100):
            append_transcript(f"agent{i}")
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    st = pool.stats()
    evicted = st.evictions - evicted_before
    assert evicted == 100 and st.agents_hot == 2
    assert st.agents_warm == st.evictions
    # an evicted 900-token agent keeps its id, not its transcript and token lists
    assert growth < 512 * evicted, growth / evicted
