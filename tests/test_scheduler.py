"""Scheduler tests: interleaving, reuse, fairness, determinism, accounting."""

import sys
import tracemalloc

import numpy as np
import pytest

from agentkv import codec
from agentkv import scheduler as scheduler_module
from agentkv.block_pool import BlockPool
from agentkv.codec import q4_bytes
from agentkv.engine import SyntheticEngine
from agentkv.errors import InvalidArgumentError, PersistenceError
from agentkv.prefix import Verdict
from agentkv.scheduler import EventKind, Request, Scheduler

from .helpers import event_line, tiny_spec
from .trace_oracle import PolicySim


class RecordingEngine:
    """Delegating wrapper that logs which engine ops ran, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def counters(self):
        return self.inner.counters

    def tokenize(self, text):
        return self.inner.tokenize(text)

    def prefill_chunk(self, agent_id, token_ids, start_position):
        self.log.append(("prefill", agent_id, len(token_ids)))
        return self.inner.prefill_chunk(agent_id, token_ids, start_position)

    def decode_step(self, batch):
        self.log.append(("decode", tuple(batch.agent_ids)))
        return self.inner.decode_step(batch)


def make_world(tmp_path, chunk_tokens=4, max_batch=2, budget=1 << 34, record=False):
    spec = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
    pool = BlockPool(spec, tmp_path, budget_bytes=budget)
    engine = SyntheticEngine(spec, seed=1)
    if record:
        engine = RecordingEngine(engine)
    sched = Scheduler(pool, engine, chunk_tokens=chunk_tokens, max_batch=max_batch)
    return spec, pool, engine, sched


def prompt_of_tokens(n, fill="p"):
    return fill * (4 * n)  # synthetic tokenizer uses 4-char tokens


def events_for(events, rid):
    return [e for e in events if e.request_id == rid]


def kinds(events):
    return [e.kind for e in events]


def done_payloads(events):
    """request id -> the accounting its DONE event carries"""
    return {e.request_id: e.payload for e in events if e.kind is EventKind.DONE}


# ---------------------------------------------------------------------------
# basic lifecycle


def test_single_request_event_shape(tmp_path):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=64)
    sched.submit(Request("r1", "a", prompt_of_tokens(100), max_tokens=3))
    events = sched.run_until_idle()
    mine = events_for(events, "r1")
    assert kinds(mine) == [
        EventKind.FIRST_TOKEN,
        EventKind.TOKEN,
        EventKind.TOKEN,
        EventKind.DONE,
    ]
    assert engine.counters.decode_steps == 3
    assert engine.counters.prefill_tokens == 100
    ticks = [e.tick for e in mine]
    assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)


def test_submit_to_empty_agent_prefills_everything(tmp_path):
    _, _, engine, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(13), max_tokens=1))
    (done,) = done_payloads(sched.run_until_idle()).values()
    assert done["prompt_tokens"] == 13
    assert done["reused_tokens"] == 0
    assert engine.counters.prefill_tokens == 13


def test_transcript_grows_with_decode(tmp_path):
    _, pool, _, sched = make_world(tmp_path)
    prompt = prompt_of_tokens(4)
    sched.submit(Request("r1", "a", prompt, max_tokens=3))
    sched.run_until_idle()
    cache = pool.get_cache("a")
    assert cache.token_count == 7
    assert cache.transcript_text.startswith(prompt)
    assert len(cache.transcript_text) > len(prompt)


# ---------------------------------------------------------------------------
# prefix reuse paths


def test_exact_resubmission_skips_prefill(tmp_path):
    _, pool, engine, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(6), max_tokens=2))
    sched.run_until_idle()
    transcript = pool.get_cache("a").transcript_text
    before = engine.counters.prefill_tokens
    m = sched.submit(Request("r2", "a", transcript, max_tokens=1))
    assert m.verdict is Verdict.EXACT
    sched.run_until_idle()
    assert engine.counters.prefill_tokens == before  # zero new prefill


def test_extend_prefills_only_suffix(tmp_path):
    _, pool, engine, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(6), max_tokens=2))
    sched.run_until_idle()
    transcript = pool.get_cache("a").transcript_text
    reused_tokens = pool.get_cache("a").token_count
    before = engine.counters.prefill_tokens
    suffix = "new material!" * 2
    m = sched.submit(Request("r2", "a", transcript + suffix, max_tokens=1))
    assert m.verdict is Verdict.EXTEND
    assert m.reuse_tokens == reused_tokens
    sched.run_until_idle()
    suffix_tokens = (len(suffix) + 3) // 4
    assert engine.counters.prefill_tokens - before == suffix_tokens


def test_diverge_drops_and_rebuilds(tmp_path):
    _, pool, engine, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(8), max_tokens=1))
    sched.run_until_idle()
    before = engine.counters.prefill_tokens
    fresh = "Z" * 40  # nothing in common
    m = sched.submit(Request("r2", "a", fresh, max_tokens=1))
    assert m.verdict is Verdict.DIVERGE
    sched.run_until_idle()
    assert engine.counters.prefill_tokens - before == 10
    cache = pool.get_cache("a")
    assert cache.transcript_text.startswith(fresh)


def test_partial_extend_truncates_to_block_boundary(tmp_path):
    spec, pool, engine, sched = make_world(tmp_path, chunk_tokens=64)
    # 24 tokens = 3 full blocks of 8
    sched.submit(Request("r1", "a", prompt_of_tokens(24), max_tokens=1))
    sched.run_until_idle()
    cache = pool.get_cache("a")
    transcript = cache.transcript_text
    # keep 60% of the transcript, then diverge
    keep = int(len(transcript) * 0.6)
    prompt = transcript[:keep] + "!DIVERGENT TAIL!" * 3
    before = engine.counters.prefill_tokens
    m = sched.submit(Request("r2", "a", prompt, max_tokens=1))
    assert m.verdict is Verdict.EXTEND
    assert m.reuse_tokens % spec.block_tokens == 0
    assert 0 < m.reuse_tokens <= keep
    done = done_payloads(sched.run_until_idle())
    assert done["r2"]["reused_tokens"] == m.reuse_tokens
    assert engine.counters.prefill_tokens - before == done["r2"]["prompt_tokens"] - m.reuse_tokens
    assert pool.get_cache("a").transcript_text.startswith(prompt)


def test_non_persistent_flag_forces_fresh_prefill(tmp_path):
    _, pool, engine, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(6), max_tokens=1))
    sched.run_until_idle()
    transcript = pool.get_cache("a").transcript_text
    before = engine.counters.prefill_tokens
    m = sched.submit(
        Request("r2", "a", transcript, max_tokens=1, persistent_cache_prefix=False)
    )
    assert m is None
    sched.run_until_idle()
    assert engine.counters.prefill_tokens - before == (len(transcript) + 3) // 4


def test_fresh_submit_replaces_an_agent_with_a_corrupt_sidecar(tmp_path):
    _, pool, engine, sched = make_world(tmp_path)
    prompt = prompt_of_tokens(10)
    sched.submit(Request("r1", "a", prompt, max_tokens=1))
    sched.run_until_idle()
    sched.save_all()
    pool.drop_agent("a")
    (tmp_path / "a.meta.json").write_text("{not json", encoding="utf-8")
    before = engine.counters.prefill_tokens
    sched.submit(Request("r2", "a", prompt, max_tokens=1, persistent_cache_prefix=False))
    assert list(tmp_path.iterdir()) == []
    done = done_payloads(sched.run_until_idle())["r2"]
    assert "error" not in done and done["reused_tokens"] == 0
    assert engine.counters.prefill_tokens - before == 10


# ---------------------------------------------------------------------------
# interleaving and fairness


def test_two_prefills_round_robin_chunks(tmp_path):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=4, record=True)
    sched.submit(Request("ra", "a", prompt_of_tokens(8), max_tokens=1))
    sched.submit(Request("rb", "b", prompt_of_tokens(8), max_tokens=1))
    sched.run_until_idle()
    prefills = [rec[1] for rec in engine.log if rec[0] == "prefill"]
    assert prefills == ["a", "b", "a", "b"]


def test_staggered_arrival_joins_at_next_boundary(tmp_path):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=4, record=True)
    sched.submit(Request("ra", "a", prompt_of_tokens(16), max_tokens=1))
    sched.step()  # one chunk of A before B arrives
    sched.submit(Request("rb", "b", prompt_of_tokens(8), max_tokens=1))
    sched.run_until_idle()
    prefills = [rec[1] for rec in engine.log if rec[0] == "prefill"]
    # A was already re-queued when B joined; strict alternation follows
    assert prefills == ["a", "a", "b", "a", "b", "a"]


def test_fairness_three_agents(tmp_path):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=4, record=True)
    for name in ("a", "b", "c"):
        sched.submit(Request(f"r{name}", name, prompt_of_tokens(12), max_tokens=1))
    sched.run_until_idle()
    prefills = [rec[1] for rec in engine.log if rec[0] == "prefill"]
    # between two consecutive chunks of one agent, every other prefilling
    # agent gets exactly one chunk
    assert prefills == ["a", "b", "c"] * 3


def prime_agents(pool, sched, names, tokens=4):
    for name in names:
        sched.submit(Request(f"prime-{name}", name, prompt_of_tokens(tokens), 1))
    sched.run_until_idle()
    return {name: pool.get_cache(name).transcript_text for name in names}


def test_batched_decode_advances_all_ready_rows(tmp_path):
    _, pool, engine, sched = make_world(tmp_path, chunk_tokens=64, record=True)
    transcripts = prime_agents(pool, sched, ("a", "b"))
    engine.log.clear()
    # EXACT matches: both rows decode-ready immediately, no prefill
    sched.submit(Request("ra", "a", transcripts["a"], max_tokens=3))
    sched.submit(Request("rb", "b", transcripts["b"], max_tokens=3))
    events = sched.run_until_idle()
    decodes = [rec for rec in engine.log if rec[0] == "decode"]
    assert all(rec[1] == ("a", "b") for rec in decodes)
    assert len(decodes) == 3
    token_events = [
        e
        for e in events
        if e.kind in (EventKind.FIRST_TOKEN, EventKind.TOKEN)
        and e.request_id in ("ra", "rb")
    ]
    assert len(token_events) == 6  # 2 rows x 3 steps


def test_decode_rotation_beyond_max_batch(tmp_path):
    _, pool, engine, sched = make_world(
        tmp_path, chunk_tokens=64, max_batch=2, record=True
    )
    transcripts = prime_agents(pool, sched, ("a", "b", "c"))
    engine.log.clear()
    for name in ("a", "b", "c"):
        sched.submit(Request(f"r{name}", name, transcripts[name], max_tokens=2))
    sched.run_until_idle()
    decodes = [rec[1] for rec in engine.log if rec[0] == "decode"]
    # ready deque rotates: [a b c] -> decode(a,b) -> [c a b] -> decode(c,a) ...
    assert decodes == [("a", "b"), ("c", "a"), ("b", "c")]
    flattened = [a for pair in decodes for a in pair]
    assert flattened.count("a") == flattened.count("b") == flattened.count("c") == 2


def test_trace_matches_policy_simulator_randomized(tmp_path):
    rng = np.random.default_rng(21)
    for trial in range(20):
        chunk = int(rng.integers(2, 6))
        max_batch = int(rng.integers(1, 4))
        world_dir = tmp_path / f"t{trial}"
        _, _, engine, sched = make_world(
            world_dir, chunk_tokens=chunk, max_batch=max_batch, record=True
        )
        sim = PolicySim(chunk, max_batch)
        n_agents = int(rng.integers(1, 5))
        plans = []
        for i in range(n_agents):
            tokens = int(rng.integers(1, 20))
            gen = int(rng.integers(1, 5))
            plans.append((f"agent{i}", tokens, gen))
        submitted = 0
        step_budget = 500
        while (submitted < len(plans) or sched.has_work()) and step_budget:
            step_budget -= 1
            if submitted < len(plans) and rng.random() < 0.5:
                agent, tokens, gen = plans[submitted]
                sched.submit(Request(f"r{submitted}", agent, prompt_of_tokens(tokens), gen))
                sim.submit(agent, tokens, gen)
                submitted += 1
            else:
                sched.step()
                sim.step()
        assert step_budget > 0
        expected = []
        for rec in sim.records:
            if rec[0] == "prefill":
                expected.append(("prefill", rec[1]))
            else:
                expected.append(("decode", rec[1]))
        got = [
            (rec[0], rec[1]) if rec[0] == "prefill" else (rec[0], rec[1])
            for rec in engine.log
        ]
        assert got == expected
        assert engine.counters.reentrancy_violations == 0


# ---------------------------------------------------------------------------
# determinism and conservation


def run_scripted(tmp_path, name):
    _, pool, engine, sched = make_world(tmp_path / name, chunk_tokens=3)
    sched.submit(Request("r1", "a", prompt_of_tokens(9), max_tokens=2))
    sched.submit(Request("r2", "b", prompt_of_tokens(5), max_tokens=3))
    events = sched.run_until_idle()
    sched.submit(Request("r3", "a", pool.get_cache("a").transcript_text + "more!!!", 1))
    events += sched.run_until_idle()
    return [event_line(e) for e in events]


def test_full_trace_determinism(tmp_path):
    assert run_scripted(tmp_path, "one") == run_scripted(tmp_path, "two")


def test_work_conservation_randomized(tmp_path):
    rng = np.random.default_rng(33)
    for trial in range(10):
        _, pool, engine, sched = make_world(tmp_path / f"w{trial}", chunk_tokens=4)
        # phase 1: fresh prompts
        for i in range(3):
            sched.submit(
                Request(f"p1-{i}", f"ag{i}", prompt_of_tokens(int(rng.integers(1, 12))),
                        int(rng.integers(1, 4)))
            )
        events = sched.run_until_idle()
        # phase 2: extensions
        for i in range(3):
            base = pool.get_cache(f"ag{i}").transcript_text
            sched.submit(
                Request(f"p2-{i}", f"ag{i}", base + "x" * int(rng.integers(1, 30)),
                        int(rng.integers(1, 4)))
            )
        events += sched.run_until_idle()
        accounting = done_payloads(events).values()
        expected_prefill = sum(a["prompt_tokens"] - a["reused_tokens"] for a in accounting)
        assert engine.counters.prefill_tokens == expected_prefill
        assert engine.counters.reentrancy_violations == 0
        # every request completed
        assert len(accounting) == 6
        assert all(a["generated"] >= 1 for a in accounting)


def test_peak_staging_bounded_by_one_chunk(tmp_path):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=4, record=True)
    sched.submit(Request("r1", "a", prompt_of_tokens(40), max_tokens=1))
    sched.run_until_idle()
    # the engine never stages more than one 4-token chunk's K/V at a time
    prefills = [entry for entry in engine.log if entry[0] == "prefill"]
    assert prefills == [("prefill", "a", 4)] * 10


def test_budget_respected_with_evictions(tmp_path):
    spec = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
    budget = q4_bytes(spec, 64)
    pool = BlockPool(spec, tmp_path, budget_bytes=budget)
    engine = SyntheticEngine(spec, seed=2)
    sched = Scheduler(pool, engine, chunk_tokens=8, max_batch=2)
    for i in range(4):
        sched.submit(Request(f"r{i}", f"ag{i}", prompt_of_tokens(30), max_tokens=1))
    events = sched.run_until_idle()
    assert pool.stats().resident_bytes <= budget
    assert any(e.kind is EventKind.EVICTED for e in events)
    # every request still finished
    done = [e for e in events if e.kind is EventKind.DONE]
    assert len(done) == 4 and all("error" not in e.payload for e in done)


# ---------------------------------------------------------------------------
# persistence hooks


def test_save_all_and_restore_events(tmp_path):
    _, pool, _, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(4), max_tokens=1))
    sched.submit(Request("r2", "b", prompt_of_tokens(4), max_tokens=1))
    sched.run_until_idle()
    saved = sched.save_all()
    assert [e.kind for e in saved] == [EventKind.CACHE_SAVED] * 2
    assert {e.payload["agent_id"] for e in saved} == {"a", "b"}

    pool.drop_agent("a")
    pool.drop_agent("b")
    restored = sched.restore(["a", "ghost", "b"])
    ok = [e for e in restored if e.payload.get("ok", True)]
    failed = [e for e in restored if not e.payload.get("ok", True)]
    assert {e.payload["agent_id"] for e in ok} == {"a", "b"}
    assert len(failed) == 1 and failed[0].payload["agent_id"] == "ghost"


def test_save_all_empty_pool_no_events(tmp_path):
    _, _, _, sched = make_world(tmp_path)
    assert sched.save_all() == []


# ---------------------------------------------------------------------------
# decode keeps one copy of the cache and quantizes each token once


def count_quantized_elements(monkeypatch):
    """Patch ``quantize_array`` wherever agentkv bound it; returns the sizes seen."""
    real = codec.quantize_array
    seen = []

    def counting(values, group_size):
        seen.append(np.asarray(values).size)
        return real(values, group_size)

    for name, module in list(sys.modules.items()):
        if name.startswith("agentkv") and getattr(module, "quantize_array", None) is real:
            monkeypatch.setattr(module, "quantize_array", counting)
    return seen


def test_decode_step_quantizes_each_new_token_once(tmp_path, monkeypatch):
    spec, pool, _, sched = make_world(tmp_path, chunk_tokens=64)
    transcripts = prime_agents(pool, sched, ("a", "b"), tokens=20)
    # EXACT matches: every unit below is a decode step over both rows
    sched.submit(Request("ra", "a", transcripts["a"], max_tokens=3))
    sched.submit(Request("rb", "b", transcripts["b"], max_tokens=3))
    seen = count_quantized_elements(monkeypatch)
    assert spec.k_head_dim == spec.v_head_dim
    per_token = 2 * spec.num_layers * spec.num_kv_heads * spec.k_head_dim  # 2·L·H·D
    for _ in range(3):
        seen.clear()
        events = sched.step()
        decoded = sum(e.kind in (EventKind.FIRST_TOKEN, EventKind.TOKEN) for e in events)
        assert decoded == 2
        assert sum(seen) == decoded * per_token
    assert not sched.has_work()


def decode_step_peak_bytes(tmp_path, context_tokens):
    """tracemalloc peak of one steady-state decode step over two agents."""
    spec = tiny_spec(layers=2, heads=4, k_dim=64, v_dim=64, block=16, group=16)
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 34)
    sched = Scheduler(pool, SyntheticEngine(spec, seed=3), chunk_tokens=512, max_batch=2)
    for name in ("a", "b"):
        sched.submit(Request(f"r{name}", name, prompt_of_tokens(context_tokens), max_tokens=16))
    first_tokens = 0
    while first_tokens < 2:  # both prefills done
        first_tokens += sum(e.kind is EventKind.FIRST_TOKEN for e in sched.step())
    sched.step()  # a batched decode step, so nothing first-time is measured
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = sched.step()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [(e.kind, e.request_id) for e in events] == [
        (EventKind.TOKEN, "ra"), (EventKind.TOKEN, "rb")]
    return peak


def test_decode_step_memory_does_not_grow_with_context(tmp_path):
    short = decode_step_peak_bytes(tmp_path / "short", 256)
    long = decode_step_peak_bytes(tmp_path / "long", 2048)
    # a copy of the batch's K/V would add 2 rows x 2048 tokens x 768 B;
    # the one context-sized transient left is the transcript string
    # (4 chars a token) that each row's append rebuilds
    assert long <= short + 2 * 4 * 2048, (short, long)


# ---------------------------------------------------------------------------
# errors


def test_duplicate_request_id_rejected(tmp_path):
    _, _, _, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(2), max_tokens=1))
    with pytest.raises(InvalidArgumentError):
        sched.submit(Request("r1", "b", prompt_of_tokens(2), max_tokens=1))


def test_finished_ids_stay_refused_within_the_reuse_horizon(tmp_path, monkeypatch):
    assert 1000 <= scheduler_module._FINISHED_IDS_KEPT <= 100_000
    kept = 8  # the same code path as the real horizon, at a test's cost
    monkeypatch.setattr(scheduler_module, "_FINISHED_IDS_KEPT", kept)
    _, _, _, sched = make_world(tmp_path)
    for i in range(kept + 10):
        sched.submit(Request(f"r{i}", f"agent{i % 2}", prompt_of_tokens(1), max_tokens=1,
                             persistent_cache_prefix=False))
        if i % 2:
            sched.run_until_idle()
        assert len(sched._finished_ids) <= kept
    sched.run_until_idle()
    assert len(sched._finished_ids) == kept
    newest = f"r{kept + 9}"
    with pytest.raises(InvalidArgumentError):  # finished, inside the horizon
        sched.submit(Request(newest, "c", prompt_of_tokens(1), max_tokens=1))
    sched.submit(Request("r0", "c", prompt_of_tokens(1), max_tokens=1))  # aged out
    with pytest.raises(InvalidArgumentError):  # in flight
        sched.submit(Request("r0", "d", prompt_of_tokens(1), max_tokens=1))


def test_inflight_agent_rejected(tmp_path):
    _, _, _, sched = make_world(tmp_path)
    sched.submit(Request("r1", "a", prompt_of_tokens(8), max_tokens=1))
    with pytest.raises(InvalidArgumentError):
        sched.submit(Request("r2", "a", prompt_of_tokens(2), max_tokens=1))
    sched.run_until_idle()
    sched.submit(Request("r3", "a", prompt_of_tokens(2), max_tokens=1))  # now fine


def test_engine_failure_fails_only_that_request(tmp_path, monkeypatch):
    _, _, engine, sched = make_world(tmp_path, chunk_tokens=4)
    sched.submit(Request("ra", "a", prompt_of_tokens(6), max_tokens=2))
    sched.submit(Request("rb", "b", prompt_of_tokens(6), max_tokens=2))

    real = engine.prefill_chunk
    calls = {"n": 0}

    def flaky(agent_id, token_ids, start_position):
        calls["n"] += 1
        if agent_id == "a":
            raise PersistenceError("injected engine fault")
        return real(agent_id, token_ids, start_position)

    monkeypatch.setattr(engine, "prefill_chunk", flaky)
    events = sched.run_until_idle()
    a_events = events_for(events, "ra")
    assert kinds(a_events) == [EventKind.DONE]
    assert "error" in a_events[0].payload
    b_events = events_for(events, "rb")
    assert kinds(b_events) == [EventKind.FIRST_TOKEN, EventKind.TOKEN, EventKind.DONE]


@pytest.mark.parametrize("fault", ["append_raises", "nan_kv"])
def test_append_failure_in_decode_fails_only_that_row(tmp_path, monkeypatch, fault):
    _, pool, engine, sched = make_world(tmp_path, chunk_tokens=64, record=True)
    transcripts = prime_agents(pool, sched, ("a", "b"))
    engine.log.clear()
    sched.submit(Request("ra", "a", transcripts["a"], max_tokens=2))
    sched.submit(Request("rb", "b", transcripts["b"], max_tokens=2))

    if fault == "append_raises":
        real = pool.append_tokens

        def flaky(agent_id, *args, **kwargs):
            if agent_id == "a":
                raise PersistenceError("injected append fault")
            return real(agent_id, *args, **kwargs)

        monkeypatch.setattr(pool, "append_tokens", flaky)
        message = "injected append fault"
    else:
        real_decode = engine.decode_step

        def nan_in_row_a(batch):
            token_ids, texts, new_k, new_v = real_decode(batch)
            if "a" in batch.agent_ids:
                new_v[-1][batch.agent_ids.index("a")] = np.nan
            return token_ids, texts, new_k, new_v

        monkeypatch.setattr(engine, "decode_step", nan_in_row_a)
        message = "finite"
    a_before = pool.get_cache("a").token_count
    events = sched.run_until_idle()
    assert engine.log[0] == ("decode", ("a", "b"))  # both rows in one batch
    a_events = events_for(events, "ra")
    assert kinds(a_events) == [EventKind.DONE]
    assert message in a_events[0].payload["error"]
    assert pool.get_cache("a").token_count == a_before  # all-or-nothing append
    b_events = events_for(events, "rb")
    assert kinds(b_events) == [EventKind.FIRST_TOKEN, EventKind.TOKEN, EventKind.DONE]
    assert b_events[-1].payload["generated"] == 2
    assert "error" not in b_events[-1].payload
    assert not sched.has_work()
    # neither agent is left looking in flight
    monkeypatch.undo()
    for name in ("a", "b"):
        sched.submit(Request(f"again-{name}", name, pool.get_cache(name).transcript_text, 1))
    assert len(done_payloads(sched.run_until_idle())) == 2


def test_step_returns_events_emitted_outside_a_step(tmp_path):
    spec = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
    pool = BlockPool(spec, tmp_path, budget_bytes=q4_bytes(spec, 16))
    sched = Scheduler(pool, SyntheticEngine(spec, seed=2), chunk_tokens=16, max_batch=2)
    sched.submit(Request("r1", "a", prompt_of_tokens(12), max_tokens=1))
    sched.submit(Request("r2", "b", prompt_of_tokens(12), max_tokens=1))
    first = sched.run_until_idle()
    assert any(e.kind is EventKind.EVICTED for e in first)
    # matching against an evicted agent reloads it inside submit
    sched.submit(Request("r3", "a", prompt_of_tokens(12), max_tokens=1))
    events = sched.step()
    loaded = [e for e in events if e.kind is EventKind.CACHE_LOADED]
    assert loaded and loaded[0].tick < events[-1].tick
    assert sched.drain() == []
    ticks = [e.tick for e in first + events + sched.run_until_idle()]
    assert ticks == list(range(1, len(ticks) + 1))  # no event dropped
