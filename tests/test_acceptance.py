"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not calibrated elsewhere.
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from agentkv.batch import merge
from agentkv.block_pool import BlockPool
from agentkv.capacity import capacity_table
from agentkv.codec import (
    bf16_bits_to_f32,
    dequantize_array,
    fp16_bytes,
    q4_bytes,
    quantize_array,
)
from agentkv.daemon import DaemonClient
from agentkv.engine import SyntheticEngine
from agentkv.errors import CorruptFileError
from agentkv.model_spec import (
    GLOBAL,
    ModelCacheSpec,
    preset,
    sliding_window,
    spec_fingerprint,
)
from agentkv.persistence import load_agent, save_agent
from agentkv.prefix import match
from agentkv.scenarios import run_scenario
from agentkv.scheduler import EventKind, Request, Scheduler

from .batch_oracle import build_mask, oracle_attention
from .helpers import append_random, cache_checksum, event_line, tiny_spec
from .oracles import mask_visible, match_brute_force, reference_attention_single
from .trace_oracle import PolicySim

BUDGET_10_2_GB = 10.2 * 2**30

# published agent-capacity comparison: (fp16 fits, q4 fits) at 4K/8K/16K/32K
PUBLISHED_FIT_COUNTS = {
    "gemma3-12b": [(6, 24), (3, 12), (1, 6), (0, 3)],
    "deepseek-v2-lite-16b": [(9, 33), (4, 16), (2, 8), (1, 4)],
    "llama31-8b": [(19, 70), (9, 35), (4, 17), (2, 8)],
}
CONTEXTS = [4096, 8192, 16384, 32768]


def _elapsed_guard(start: float, limit_s: float, label: str) -> float:
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"{label} took {elapsed:.1f}s, limit {limit_s}s"
    return elapsed


# ---------------------------------------------------------------------------
# criterion 1: memory formula parity


def test_criterion_1_memory_formula_parity():
    start = time.monotonic()
    gemma = preset("gemma3-12b")
    llama = preset("llama31-8b")
    deepseek = preset("deepseek-v2-lite-16b")

    # per-agent byte arithmetic, exact
    assert fp16_bytes(gemma, 4096) == 1536 * 2**20
    assert q4_bytes(gemma, 4096) == 432 * 2**20
    assert fp16_bytes(llama, 4096) == 512 * 2**20
    assert q4_bytes(llama, 4096) == 144 * 2**20
    assert fp16_bytes(gemma, 4096) // gemma.num_layers == 33_554_432
    assert fp16_bytes(deepseek, 4096) == 1080 * 2**20
    assert q4_bytes(deepseek, 4096) / fp16_bytes(deepseek, 4096) == 0.28125

    # the main capacity table column (6/24, 3/12, 1/6, 0/3), exact
    rows = capacity_table(gemma, BUDGET_10_2_GB, CONTEXTS)
    got = [(r.fp16_agents_fit, r.q4_agents_fit) for r in rows]
    assert got == PUBLISHED_FIT_COUNTS["gemma3-12b"]

    # the counts that are arithmetically consistent across both published
    # tables under the binary 10.2 GB reading (see the companion xfail)
    ds_rows = capacity_table(deepseek, BUDGET_10_2_GB, CONTEXTS)
    assert [r.fp16_agents_fit for r in ds_rows] == [9, 4, 2, 1]
    assert [r.q4_agents_fit for r in ds_rows][2:] == [8, 4]
    ll_rows = capacity_table(llama, BUDGET_10_2_GB, CONTEXTS)
    assert ll_rows[3].fp16_agents_fit == 2

    elapsed = _elapsed_guard(start, 1.0, "criterion 1")
    print(f"\nACCEPTANCE 1 PASS: memory formula parity ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The two published fit-count tables are mutually inconsistent: with the "
        "exact per-agent byte costs (432 MiB Gemma Q4@4K, 303.75 MiB DeepSeek "
        "Q4@4K), Gemma Q4=24 requires budget >= 24*432 = 10368 MiB while "
        "DeepSeek Q4=33 requires budget < 34*303.75 = 10327.5 MiB; no single "
        "budget satisfies both. Under the prescribed binary 10.2 GB reading "
        "(10444.8 MiB) the main table reproduces 8/8 and 15/24 overall; the "
        "9 remaining counts cannot be reproduced without fudging the formula."
    ),
)
def test_criterion_1_all_24_published_fit_counts():
    actual = {}
    for model, expected in PUBLISHED_FIT_COUNTS.items():
        rows = capacity_table(preset(model), BUDGET_10_2_GB, CONTEXTS)
        actual[model] = [(r.fp16_agents_fit, r.q4_agents_fit) for r in rows]
    assert actual == PUBLISHED_FIT_COUNTS


# ---------------------------------------------------------------------------
# criterion 2: codec reconstruction bound


def _check_bound(groups: np.ndarray) -> None:
    group = groups.shape[-1]
    packed, scales, biases = quantize_array(groups, group_size=group)
    recon = dequantize_array(packed, scales, biases, group_size=group)
    scale_f32 = (
        (groups.max(-1) - groups.min(-1)) / np.float32(15.0)
    ).astype(np.float32)
    err = np.abs(recon.astype(np.float64) - groups.astype(np.float64)).max(-1)
    bound = 0.5 * scale_f32.astype(np.float64) * (1.0 + 2.0**-7)
    live = scale_f32 > 0
    assert np.all(err[live] <= bound[live]), (
        f"bound violated by {np.max(err[live] - bound[live])}"
    )
    assert np.all(err[~live] == 0.0)  # degenerate groups: see exactness below


def test_criterion_2_codec_bound():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 40_000
    uniform = rng.uniform(-1.0, 1.0, size=(n, 64)).astype(np.float32)
    gaussian = rng.standard_normal((n, 64)).astype(np.float32)
    heavy = rng.standard_t(df=2, size=(n, 64)).astype(np.float32)
    for groups in (uniform, gaussian, heavy):
        _check_bound(groups)

    # degenerate groups over bf16-representable constants: bit-exact
    bits = rng.integers(0, 0x7F80, size=2048, dtype=np.uint16)  # finite bf16
    constants = bf16_bits_to_f32(bits)
    const_groups = np.repeat(constants[:, None], 64, axis=1).astype(np.float32)
    packed, scales, biases = quantize_array(const_groups, 64)
    recon = dequantize_array(packed, scales, biases, 64)
    assert np.array_equal(recon, const_groups)

    # exactly-representable lattice groups: bit-exact
    ks = rng.integers(0, 16, size=(4096, 64))
    ks[:, 0] = 0
    ks[:, 1] = 15
    lattice = (-4.0 + 2.0 * ks).astype(np.float32)  # bias -4, scale 2
    packed, scales, biases = quantize_array(lattice, 64)
    recon = dequantize_array(packed, scales, biases, 64)
    assert np.array_equal(recon, lattice)

    # byte ratio for symmetric dims
    spec = preset("gemma3-12b")
    assert q4_bytes(spec, 4096) / fp16_bytes(spec, 4096) == 0.28125

    elapsed = _elapsed_guard(start, 30.0, "criterion 2")
    print(f"\nACCEPTANCE 2 PASS: codec bound on 120000 groups ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 3: persistence identity


def _build_preset_cache(tmp_path, name, tokens, seed):
    spec = preset(name)
    pool = BlockPool(spec, tmp_path / f"pool-{name}", budget_bytes=1 << 40)
    rng = np.random.default_rng(seed)
    append_random(pool, "agent", tokens, rng)
    return spec, pool.get_cache("agent")


def test_criterion_3_persistence_identity(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(77)

    # randomized caches for every preset, partial tail blocks included
    for name in ("gemma3-12b", "deepseek-v2-lite-16b", "llama31-8b"):
        tokens = int(rng.integers(200, 400))
        if tokens % 256 == 0:
            tokens += 1  # keep a partially-filled tail block
        spec, cache = _build_preset_cache(tmp_path, name, tokens, int(rng.integers(1e6)))
        pair = save_agent(cache, tmp_path / f"store-{name}", spec)
        loaded = load_agent(pair, spec_fingerprint(spec))
        assert cache_checksum(loaded) == cache_checksum(cache)
        assert loaded.block_token_counts() == cache.block_token_counts()

        # restart survival: reload and checksum in a fresh interpreter
        code = (
            "import sys; sys.path.insert(0, {root!r})\n"
            "from agentkv.model_spec import preset, spec_fingerprint\n"
            "from agentkv.persistence import discover_pair, load_agent\n"
            "from tests.helpers import cache_checksum\n"
            "spec = preset({name!r})\n"
            "pair = discover_pair({store!r}, 'agent')\n"
            "print(cache_checksum(load_agent(pair, spec_fingerprint(spec))))\n"
        ).format(
            root=str(Path(__file__).resolve().parent.parent),
            name=name,
            store=str(tmp_path / f"store-{name}"),
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == cache_checksum(cache), f"restart mismatch: {name}"

    # truncation fuzzing: no prefix of a valid file may ever load
    fuzz_targets = []
    small_spec = tiny_spec(layers=2, block=8)
    small_pool = BlockPool(small_spec, tmp_path / "fuzz-pool", budget_bytes=1 << 34)
    append_random(small_pool, "agent", 20, np.random.default_rng(5))
    fuzz_targets.append(
        (small_spec, save_agent(small_pool.get_cache("agent"), tmp_path / "fz1", small_spec))
    )
    llama = preset("llama31-8b")
    llama_pool = BlockPool(llama, tmp_path / "fuzz-pool2", budget_bytes=1 << 40)
    append_random(llama_pool, "agent", 80, np.random.default_rng(6))
    fuzz_targets.append(
        (llama, save_agent(llama_pool.get_cache("agent"), tmp_path / "fz2", llama))
    )
    total_cuts = 0
    for spec, pair in fuzz_targets:
        blob = pair.tensor_path.read_bytes()
        cuts = sorted(set(rng.integers(0, len(blob), size=550).tolist()))
        for cut in cuts:
            pair.tensor_path.write_bytes(blob[:cut])
            with pytest.raises(CorruptFileError):
                load_agent(pair, spec_fingerprint(spec))
        total_cuts += len(cuts)
        pair.tensor_path.write_bytes(blob)
        load_agent(pair, spec_fingerprint(spec))  # pristine file still loads
    assert total_cuts >= 1000

    elapsed = _elapsed_guard(start, 120.0, "criterion 3")
    print(
        f"\nACCEPTANCE 3 PASS: persistence identity, restart survival, "
        f"{total_cuts} truncation points ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 4: batched equivalence oracle


def _random_small_spec(rng) -> ModelCacheSpec:
    group = int(rng.choice([8, 16]))
    dims = [d for d in (8, 16, 24, 32) if d % group == 0]
    k_dim = int(rng.choice(dims))
    v_dim = int(rng.choice(dims))
    heads = int(rng.integers(1, 4))
    n_rep = int(rng.choice([1, 2, 4]))
    layers = int(rng.integers(1, 3))
    kinds = tuple(
        GLOBAL if rng.random() < 0.5 else sliding_window(int(rng.integers(1, 65)))
        for _ in range(layers)
    )
    block = int(rng.choice([8, 16, 32])) * (group // 8)
    block = max(block - block % group, group)
    return ModelCacheSpec(
        model_id=f"rand-{k_dim}x{v_dim}g{group}",
        num_layers=layers,
        num_kv_heads=heads,
        num_query_heads=heads * n_rep,
        k_head_dim=k_dim,
        v_head_dim=v_dim,
        layer_kinds=kinds,
        block_tokens=block,
        group_size=group,
    )


def _visible_np(window, q_len, k_len, valid_len):
    # independently-derived predicate: window written as j >= pos - w + 1
    i = np.arange(q_len)[:, None]
    j = np.arange(k_len)[None, :]
    pos = k_len - q_len + i
    vis = (j <= pos) & (j >= k_len - valid_len)
    if window is not None:
        vis = vis & (j >= pos - window + 1)
    return vis


def test_criterion_4_batched_equivalence(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(4096)
    configs = 200
    for trial in range(configs):
        spec = _random_small_spec(rng)
        pool = BlockPool(spec, tmp_path / f"c{trial}", budget_bytes=1 << 34)
        len_a = int(rng.integers(2, 301))
        len_b = int(rng.integers(2, 301))
        if len_a == len_b:
            len_b += 1
        kv_rng = np.random.default_rng(trial)
        append_random(pool, "a", len_a, kv_rng)
        append_random(pool, "b", len_b, kv_rng)
        caches = [pool.get_cache("a"), pool.get_cache("b")]
        batch = merge(caches, spec)
        q_len = int(rng.integers(1, 3))
        q = rng.uniform(-1, 1, (2, spec.num_query_heads, q_len, spec.k_head_dim)).astype(
            np.float32
        )
        layer = int(rng.integers(0, spec.num_layers))
        out = oracle_attention(q, batch, layer, spec)
        window = spec.layer_kinds[layer].window_tokens
        for row, cache in enumerate(caches):
            blocks = cache.blocks[layer]
            k = np.concatenate(
                [dequantize_array(b.k.packed, b.k.scales, b.k.biases, spec.group_size)
                 for b in blocks], axis=1,
            )
            v = np.concatenate(
                [dequantize_array(b.v.packed, b.v.scales, b.v.biases, spec.group_size)
                 for b in blocks], axis=1,
            )
            ref = reference_attention_single(
                q[row].tolist(), k.tolist(), v.tolist(), spec.n_rep, window
            )
            diff = np.abs(out[row] - np.asarray(ref)).max()
            assert diff <= 1e-5, f"config {trial}: max-abs {diff}"

    # mask predicate verified for every position, q_len,k_len <= 64
    pairs = 0
    for k_len in range(1, 65):
        for q_len in range(1, k_len + 1):
            for window in (None, 1, 3, 16, 64):
                valid_lens = [k_len, max(q_len, k_len // 2)]
                mask = build_mask(
                    GLOBAL if window is None else sliding_window(window),
                    q_len, k_len, valid_lens,
                )
                for row, valid in enumerate(valid_lens):
                    got = np.isfinite(mask[row, 0, 0])
                    expected = _visible_np(window, q_len, k_len, valid)
                    assert np.array_equal(got, expected), (window, q_len, k_len, valid)
                    pairs += 1
    # scalar spot confirmation of the vectorized predicate itself
    for k_len in (1, 5, 13):
        for q_len in range(1, k_len + 1):
            for window in (None, 2, 7):
                for valid in (k_len, max(q_len, k_len - 3)):
                    expected = _visible_np(window, q_len, k_len, valid)
                    for i in range(q_len):
                        for j in range(k_len):
                            assert expected[i, j] == mask_visible(
                                window, q_len, k_len, valid, i, j
                            )

    elapsed = _elapsed_guard(start, 300.0, "criterion 4")
    print(
        f"\nACCEPTANCE 4 PASS: {configs} batched-vs-unbatched configs within "
        f"1e-5, {pairs} mask grids exhaustive ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: prefix and reuse structure


def test_criterion_5_prefix_and_phase5(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(55)
    alphabet = list("abcd")
    from agentkv.blocks import AgentCache

    checked = 0
    for _ in range(10_000):
        t_len = int(rng.integers(0, 120))
        transcript = "".join(rng.choice(alphabet, size=t_len))
        if t_len:
            n_tok = int(rng.integers(1, t_len + 1))
            offsets = [0] + sorted(int(x) for x in rng.integers(1, t_len + 1, size=n_tok - 1))
        else:
            offsets = []
        mode = rng.random()
        if mode < 0.25:
            prompt = transcript
        elif mode < 0.5:
            prompt = transcript + "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        elif mode < 0.75:
            cut = int(rng.integers(0, t_len + 1)) if t_len else 0
            prompt = transcript[:cut] + "".join(rng.choice(list("XY"), size=int(rng.integers(0, 20))))
        else:
            prompt = "".join(rng.choice(list("XY"), size=int(rng.integers(0, 60))))
        block_tokens = int(rng.choice([1, 2, 4, 8]))
        cache = AgentCache(
            agent_id="x", spec_fingerprint=0, blocks=[[]],
            transcript_text=transcript, token_ids=list(range(len(offsets))),
            char_offsets=offsets,
        )
        got = match(cache, prompt, block_tokens)
        verdict, common, reuse_tokens, reuse_blocks, suffix = match_brute_force(
            transcript, offsets, prompt, block_tokens
        )
        assert got.verdict.value == verdict
        assert got.common_chars == common
        assert got.reuse_tokens == reuse_tokens
        assert got.reuse_blocks == reuse_blocks
        assert got.suffix_text == suffix
        checked += 1

    report = run_scenario("phase5", tmp_path / "phase5", seed=0)
    reuse_by_phase = [ph["persistent"]["reused_tokens"] for ph in report["phases"]]
    assert reuse_by_phase[0] == 0
    assert all(b > a for a, b in zip(reuse_by_phase, reuse_by_phase[1:]))
    assert report["checks"]["delta_equals_reuse"]

    elapsed = _elapsed_guard(start, 60.0, "criterion 5")
    print(
        f"\nACCEPTANCE 5 PASS: {checked} match pairs vs brute force, phase5 "
        f"reuse {reuse_by_phase} ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: scheduler laws


class _LoggingEngine:
    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def counters(self):
        return self.inner.counters

    def tokenize(self, text):
        return self.inner.tokenize(text)

    def prefill_chunk(self, agent_id, token_ids, start_position):
        self.log.append(("prefill", agent_id))
        return self.inner.prefill_chunk(agent_id, token_ids, start_position)

    def decode_step(self, batch):
        self.log.append(("decode", tuple(batch.agent_ids)))
        return self.inner.decode_step(batch)


def _check_round_robin(log, all_agents):
    """Between consecutive prefill chunks of one agent, every other agent
    prefilling throughout that interval gets exactly one chunk."""
    prefills = [(i, rec[1]) for i, rec in enumerate(log) if rec[0] == "prefill"]
    first_seen = {}
    last_seen = {}
    for order, (_, agent) in enumerate(prefills):
        first_seen.setdefault(agent, order)
        last_seen[agent] = order
    sequence = [agent for _, agent in prefills]
    for agent in all_agents:
        positions = [i for i, a in enumerate(sequence) if a == agent]
        for p1, p2 in zip(positions, positions[1:]):
            between = sequence[p1 + 1 : p2]
            for other in set(between):
                # an agent prefilling across the whole interval appears once
                if first_seen[other] <= p1 and last_seen[other] >= p2:
                    assert between.count(other) == 1, (agent, sequence)


def test_criterion_6_scheduler_laws(tmp_path):
    start = time.monotonic()
    spec = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
    rng = np.random.default_rng(66)
    workloads = 100
    for trial in range(workloads):
        chunk = int(rng.integers(2, 6))
        max_batch = int(rng.integers(1, 4))
        pool = BlockPool(spec, tmp_path / f"w{trial}", budget_bytes=1 << 34)
        engine = _LoggingEngine(SyntheticEngine(spec, seed=trial))
        sched = Scheduler(pool, engine, chunk_tokens=chunk, max_batch=max_batch)
        sim = PolicySim(chunk, max_batch)
        n_requests = int(rng.integers(1, 6))
        plans = [
            (f"agent{i}", int(rng.integers(1, 24)), int(rng.integers(1, 4)))
            for i in range(n_requests)
        ]
        submitted = 0
        events = []
        while submitted < len(plans) or sched.has_work():
            # staggered arrivals: submissions interleave with steps
            if submitted < len(plans) and rng.random() < 0.4:
                agent, tokens, gen = plans[submitted]
                sched.submit(Request(f"r{submitted}", agent, "p" * (4 * tokens), gen))
                sim.submit(agent, tokens, gen)
                submitted += 1
            else:
                events += sched.step()
                sim.step()
        # single-lane law
        assert engine.counters.reentrancy_violations == 0
        # unit-by-unit agreement with the policy simulator
        expected = [
            ("prefill", rec[1]) if rec[0] == "prefill" else ("decode", rec[1])
            for rec in sim.records
        ]
        assert engine.log == expected
        # chunk fairness
        _check_round_robin(engine.log, [p[0] for p in plans])
        # work conservation, from the accounting each DONE event carries
        accounting = [e.payload for e in events if e.kind is EventKind.DONE]
        assert len(accounting) == n_requests
        assert engine.counters.prefill_tokens == sum(
            a["prompt_tokens"] - a["reused_tokens"] for a in accounting
        )
        decode_tokens = sum(a["generated"] for a in accounting)
        assert engine.counters.decode_tokens == decode_tokens

    # full-trace determinism under a fixed seed
    def scripted(run_dir):
        pool = BlockPool(spec, run_dir, budget_bytes=1 << 34)
        sched = Scheduler(pool, SyntheticEngine(spec, seed=9), chunk_tokens=3, max_batch=2)
        sched.submit(Request("r1", "a", "p" * 36, 2))
        sched.submit(Request("r2", "b", "p" * 20, 3))
        events = sched.run_until_idle()
        events += sched.save_all()
        return [event_line(e) for e in events]

    assert scripted(tmp_path / "det1") == scripted(tmp_path / "det2")

    elapsed = _elapsed_guard(start, 120.0, "criterion 6")
    print(
        f"\nACCEPTANCE 6 PASS: {workloads} randomized workloads, single-lane, "
        f"fair, conserving, deterministic ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 7: end-to-end restart through the daemon


def _spawn_daemon(tmp_path):
    socket_path = tmp_path / "daemon.sock"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "agentkv.cli", "serve",
            "--model", "llama31-8b",
            "--cache-dir", str(tmp_path / "cache"),
            "--socket", str(socket_path),
            "--chunk-tokens", "16",
            "--seed", "7",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening on" in line
    return proc, str(socket_path)


def test_criterion_7_end_to_end_restart(tmp_path):
    start = time.monotonic()
    proc, address = _spawn_daemon(tmp_path)
    transcripts = {}
    try:
        client = DaemonClient(address)
        prompts = {
            "alice": "alice context " * 12,
            "bob": "bob context " * 20,
        }
        for i, (agent, prompt) in enumerate(sorted(prompts.items())):
            response = client.request(
                "submit",
                {"request_id": f"r{i}", "agent_id": agent, "prompt": prompt,
                 "max_tokens": 3},
            )
            assert response["ok"]
        client.request("run")
        # the client knows the full transcript: its prompt plus the streamed tokens
        generated = {}
        for event in client.drain_events():
            if event["kind"] in ("first_token", "token"):
                rid = event["request_id"]
                generated.setdefault(rid, []).append(event["payload"]["text"])
        for i, (agent, prompt) in enumerate(sorted(prompts.items())):
            transcripts[agent] = prompt + "".join(generated[f"r{i}"])
        assert client.request("save_all")["ok"]
        client.close()
    finally:
        proc.send_signal(signal.SIGKILL)  # hard kill, no cleanup
        proc.wait()

    # restart on the same cache dir
    proc, address = _spawn_daemon(tmp_path)
    try:
        client = DaemonClient(address)
        restored = client.request("restore", {"agent_ids": ["alice", "bob"]})
        assert restored["ok"]
        outcomes = {
            e["payload"]["agent_id"]: e["payload"].get("ok", True)
            for e in restored["result"]["system_events"]
        }
        assert outcomes == {"alice": True, "bob": True}

        stats0 = client.request("stats")["result"]
        assert stats0["engine"]["prefill_tokens"] == 0

        # identical prompts: EXACT verdicts, zero engine prefill
        for i, agent in enumerate(sorted(transcripts)):
            m = client.request("match", {"agent_id": agent, "prompt": transcripts[agent]})
            assert m["result"]["match"]["verdict"] == "exact"
            response = client.request(
                "submit",
                {"request_id": f"again{i}", "agent_id": agent,
                 "prompt": transcripts[agent], "max_tokens": 1},
            )
            assert response["result"]["match"]["verdict"] == "exact"
        client.request("run")
        stats1 = client.request("stats")["result"]
        assert stats1["engine"]["prefill_tokens"] == 0, "restart must cost zero prefill"
        assert stats1["engine"]["decode_steps"] >= 1
        client.close()
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()

    elapsed = _elapsed_guard(start, 30.0, "criterion 7")
    print(f"\nACCEPTANCE 7 PASS: kill -9 restart, EXACT match, 0 prefill ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 8: isolation


def test_criterion_8_isolation(tmp_path):
    start = time.monotonic()
    spec = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 34)
    rng = np.random.default_rng(88)
    agents = [f"agent{i}" for i in range(5)]
    for agent in agents:
        append_random(pool, agent, int(rng.integers(4, 24)), rng)
    baselines = {agent: cache_checksum(pool.get_cache(agent)) for agent in agents}

    mutations = 10_000
    for _ in range(mutations):
        target = agents[int(rng.integers(0, 5))]
        op = rng.random()
        if op < 0.55:
            append_random(pool, target, int(rng.integers(1, 6)), rng)
        elif op < 0.7:
            pool.get_cache(target)
        elif op < 0.8:
            pool.evict_lru()
            target = None  # eviction does not change any agent's bytes
        elif op < 0.9:
            cache = pool.get_cache(target)
            keep_blocks = int(rng.integers(0, len(cache.block_token_counts()) + 1))
            keep = min(keep_blocks * spec.block_tokens, cache.token_count)
            keep -= keep % spec.block_tokens
            pool.truncate_agent(target, keep)
        else:
            pool.save_agent(target)
        if target is not None:
            baselines[target] = cache_checksum(pool.get_cache(target))
        for other in agents:
            if other != target:
                assert cache_checksum(pool.get_cache(other)) == baselines[other], (
                    f"agent {other} changed during an operation on {target}"
                )
        # cap growth to keep the run fast
        cache = pool.get_cache(target) if target else None
        if cache is not None and cache.token_count > 120:
            pool.truncate_agent(target, 40 - 40 % spec.block_tokens)
            baselines[target] = cache_checksum(pool.get_cache(target))

    elapsed = _elapsed_guard(start, 60.0, "criterion 8")
    print(
        f"\nACCEPTANCE 8 PASS: {mutations} mutations, foreign checksums stable "
        f"({elapsed:.2f}s)"
    )
