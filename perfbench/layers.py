"""Per-layer metrics from the daemon's span JSONL and the client's records.

Spans come from tracer.py. Only spans that start inside the measured
phase count. Exact counts (verdicts, prefill tokens) are taken over the
requests of the count window, so they repeat for a seed; timings and
call counts are taken over the whole measured phase.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from stats import median, self_time, share

MS = 1e-6  # ns -> ms
MIB = 2**20

# unit of every per-layer metric, in BENCHMARK.json order
UNITS = {
    "daemon.submit_rtt_p50_ms": "ms",
    "daemon.step_rtt_p50_ms": "ms",
    "daemon.overhead_p50_ms": "ms",
    "daemon.ops": "count",
    "daemon.errors": "count",
    "scheduler.submit_p50_ms": "ms",
    "scheduler.prefill_unit_p50_ms": "ms",
    "scheduler.decode_unit_p50_ms": "ms",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.decode_batch_mean": "rows",
    "scheduler.prefill_tokens_paid": "tokens",
    "scheduler.prefill_tokens_saved": "tokens",
    "engine.prefill_ms_per_token": "ms/token",
    "engine.decode_step_p50_ms": "ms",
    "engine.tokenize_ms": "ms",
    "engine.busy_share": "ratio",
    "codec.quantize_melem_s": "Melem/s",
    "codec.quantize_calls": "count",
    "codec.quantize_elem_per_decoded_token": "elem/token",
    "codec.pack_codes_share": "ratio",
    "codec.bf16_share": "ratio",
    "block_pool.append_chunk_p50_ms": "ms",
    "block_pool.append_token_p50_ms": "ms",
    "block_pool.get_cache_hit_p50_ms": "ms",
    "block_pool.get_cache_reload_p50_ms": "ms",
    "block_pool.evictions": "count",
    "block_pool.reloads": "count",
    "block_pool.resident_mib_peak": "MiB",
    "batch.merge_p50_ms": "ms",
    "batch.merge_calls": "count",
    "batch.update_p50_ms": "ms",
    "batch.update_bytes_per_step": "bytes",
    "prefix.match_p50_ms": "ms",
    "prefix.match_calls": "count",
    "prefix.verdict_exact": "count",
    "prefix.verdict_extend": "count",
    "prefix.verdict_diverge": "count",
    "persistence.save_p50_ms": "ms",
    "persistence.load_p50_ms": "ms",
    "persistence.save_mib_s": "MiB/s",
    "persistence.load_mib_s": "MiB/s",
    "persistence.saves": "count",
    "persistence.loads": "count",
}

_QUANTIZE = ("codec.quantize_tensor", "codec.quantize_array")


def load_spans(path: Path | str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["meta"]
        spans = [json.loads(line) for line in fh]
    return meta, spans


def _dur(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


class SpanTree:
    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = defaultdict(list)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)
            self.by_name[s["name"]].append(s)

    def descendants(self, span: dict):
        stack = list(self.children.get(span["id"], ()))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(self.children.get(s["id"], ()))

    def ancestor(self, span: dict, name: str) -> dict | None:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return parent
            parent = self.by_id.get(parent["parent"])
        return None

    def named(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])


def self_time_by_layer(tree: SpanTree) -> dict[str, int]:
    """Self time (span minus covered child time) summed per layer, in ns."""
    out: dict[str, int] = defaultdict(int)
    for s in tree.spans:
        kids = [(c["start_ns"], c["end_ns"]) for c in tree.children.get(s["id"], ())]
        out[s["name"].split(".", 1)[0]] += self_time(s["start_ns"], s["end_ns"], kids)
    return dict(out)


def per_layer(
    spans: list[dict],
    meta: dict,
    window: tuple[int, int],
    client: dict,
    counted_rids: set[str],
) -> tuple[dict[str, float], dict]:
    """Compute every per-layer metric; returns (metrics, sample counts)."""
    t0, t1 = window
    wall = t1 - t0
    tree = SpanTree([s for s in spans if t0 <= s["start_ns"] <= t1])
    m: dict[str, float] = {}
    n: dict[str, int] = {}

    def p50(name: str, durations_ns: list[int]) -> None:
        m[name] = median([d * MS for d in durations_ns])
        n[name] = len(durations_ns)

    # daemon: round trips are client-side. Overhead is a step's round trip
    # minus the Scheduler.step span inside it and minus the time its work
    # waited for the worker lane (busy with the other client's request), so
    # what is left is sockets, JSON, event routing and the thread hand-off.
    m["daemon.submit_rtt_p50_ms"] = median(client["submit_rtt_ms"])
    n["daemon.submit_rtt_p50_ms"] = len(client["submit_rtt_ms"])
    m["daemon.step_rtt_p50_ms"] = median([rtt for _, rtt in client["step_rtt_ms"]])
    n["daemon.step_rtt_p50_ms"] = len(client["step_rtt_ms"])
    step_in: dict[str, int] = {}
    for step in tree.named("scheduler.step"):
        work = tree.by_id.get(step["parent"])
        dispatch = tree.by_id.get(work["parent"]) if work else None
        if dispatch is not None and dispatch["name"] == "daemon.dispatch":
            lane_wait = work["start_ns"] - dispatch["start_ns"]
            step_in[dispatch["msg"]] = _dur(step) + lane_wait
    overhead = [rtt - step_in[msg] * MS for msg, rtt in client["step_rtt_ms"] if msg in step_in]
    m["daemon.overhead_p50_ms"] = median(overhead)
    n["daemon.overhead_p50_ms"] = len(overhead)
    m["daemon.ops"] = len(tree.named("daemon.dispatch"))
    m["daemon.errors"] = client["errors"]

    # scheduler: a step's kind is the engine call inside it
    prefill_units, decode_units = [], []
    for step in tree.named("scheduler.step"):
        kinds = {d["name"] for d in tree.descendants(step)}
        if "engine.prefill_chunk" in kinds:
            prefill_units.append(_dur(step))
        elif "engine.decode_step" in kinds:
            decode_units.append(_dur(step))
    submits = tree.named("scheduler.submit")
    p50("scheduler.submit_p50_ms", [_dur(s) for s in submits])
    p50("scheduler.prefill_unit_p50_ms", prefill_units)
    p50("scheduler.decode_unit_p50_ms", decode_units)
    first_engine: dict[str, int] = {}
    for s in tree.named("engine.prefill_chunk") + tree.named("engine.decode_step"):
        for rid in s.get("rids") or [s.get("rid")]:
            if rid is not None and s["start_ns"] < first_engine.get(rid, 1 << 62):
                first_engine[rid] = s["start_ns"]
    waits = [first_engine[s["rid"]] - s["end_ns"] for s in submits if s["rid"] in first_engine]
    p50("scheduler.queue_wait_p50_ms", waits)
    decodes = tree.named("engine.decode_step")
    m["scheduler.decode_batch_mean"] = share(sum(s["batch"] for s in decodes), len(decodes))
    n["scheduler.decode_batch_mean"] = len(decodes)
    prefills = tree.named("engine.prefill_chunk")
    m["scheduler.prefill_tokens_paid"] = sum(
        s["tokens"] for s in prefills if s.get("rid") in counted_rids)
    m["scheduler.prefill_tokens_saved"] = sum(
        s.get("reuse", 0) for s in submits if s["rid"] in counted_rids)

    # engine
    prefill_tokens = sum(s["tokens"] for s in prefills)
    m["engine.prefill_ms_per_token"] = share(sum(_dur(s) for s in prefills) * MS, prefill_tokens)
    n["engine.prefill_ms_per_token"] = prefill_tokens
    p50("engine.decode_step_p50_ms", [_dur(s) for s in decodes])
    tokenizes = tree.named("engine.tokenize")
    m["engine.tokenize_ms"] = share(sum(_dur(s) for s in tokenizes) * MS, len(tokenizes))
    n["engine.tokenize_ms"] = len(tokenizes)
    engine_ns = sum(_dur(s) for s in prefills + decodes + tokenizes)
    m["engine.busy_share"] = share(engine_ns, wall)

    # codec: count the outermost quantize call only (quantize_tensor calls
    # quantize_array), and time pack_codes / bf16 rounding inside them
    top_quant = [
        s for name in _QUANTIZE for s in tree.named(name)
        if tree.by_id.get(s["parent"], {}).get("name") not in _QUANTIZE
    ]
    quant_ns = sum(_dur(s) for s in top_quant)
    quant_elems = sum(s["elems"] for s in top_quant)
    m["codec.quantize_melem_s"] = share(quant_elems / 1e6, quant_ns / 1e9)
    m["codec.quantize_calls"] = len(top_quant)
    decode_elems = 0
    decoded_tokens = 0
    for step in tree.named("scheduler.step"):
        inner = list(tree.descendants(step))
        rows = sum(d["batch"] for d in inner if d["name"] == "engine.decode_step")
        if rows:
            decoded_tokens += rows
            decode_elems += sum(
                d["elems"] for d in inner
                if d["name"] in _QUANTIZE
                and tree.by_id[d["parent"]]["name"] not in _QUANTIZE
            )
    m["codec.quantize_elem_per_decoded_token"] = share(decode_elems, decoded_tokens)
    n["codec.quantize_elem_per_decoded_token"] = decoded_tokens
    m["codec.pack_codes_share"] = share(
        sum(_dur(s) for s in tree.named("codec.pack_codes")), quant_ns)
    m["codec.bf16_share"] = share(
        sum(_dur(s) for s in tree.named("codec.f32_to_bf16_bits")), quant_ns)

    # block pool: a get_cache that loaded from disk is a reload
    appends = tree.named("block_pool.append_tokens")
    p50("block_pool.append_chunk_p50_ms", [_dur(s) for s in appends if s["tokens"] > 1])
    p50("block_pool.append_token_p50_ms", [_dur(s) for s in appends if s["tokens"] == 1])
    hits, reloads = [], []
    for s in tree.named("block_pool.get_cache"):
        loaded = any(d["name"] == "persistence.load_agent" for d in tree.descendants(s))
        (reloads if loaded else hits).append(_dur(s))
    p50("block_pool.get_cache_hit_p50_ms", hits)
    p50("block_pool.get_cache_reload_p50_ms", reloads)
    m["block_pool.evictions"] = len(tree.named("block_pool.evict_lru"))
    saves = tree.named("persistence.save_agent")
    loads = tree.named("persistence.load_agent")
    m["block_pool.reloads"] = len(loads)
    m["block_pool.resident_mib_peak"] = meta["resident_peak_bytes"] / MIB

    # batch
    merges = tree.named("batch.merge")
    p50("batch.merge_p50_ms", [_dur(s) for s in merges])
    m["batch.merge_calls"] = len(merges)
    updates = tree.named("batch.update_and_fetch")
    p50("batch.update_p50_ms", [_dur(s) for s in updates])
    m["batch.update_bytes_per_step"] = share(sum(s["bytes"] for s in updates), len(updates))

    # prefix: verdicts of the count window's submits
    matches = tree.named("prefix.match")
    p50("prefix.match_p50_ms", [_dur(s) for s in matches])
    m["prefix.match_calls"] = len(matches)
    verdicts = defaultdict(int)
    for s in matches:
        submit = tree.ancestor(s, "scheduler.submit")
        if submit is not None and submit["rid"] in counted_rids:
            verdicts[s["verdict"]] += 1
    for verdict in ("exact", "extend", "diverge"):
        m[f"prefix.verdict_{verdict}"] = verdicts[verdict]

    # persistence
    p50("persistence.save_p50_ms", [_dur(s) for s in saves])
    p50("persistence.load_p50_ms", [_dur(s) for s in loads])
    m["persistence.save_mib_s"] = share(
        sum(s["bytes"] for s in saves) / MIB, sum(_dur(s) for s in saves) / 1e9)
    m["persistence.load_mib_s"] = share(
        sum(s["bytes"] for s in loads) / MIB, sum(_dur(s) for s in loads) / 1e9)
    m["persistence.saves"] = len(saves)
    m["persistence.loads"] = len(loads)

    if set(m) != set(UNITS):
        raise RuntimeError(f"per-layer metrics out of step with UNITS: {set(m) ^ set(UNITS)}")
    details = {
        "samples": n,
        "self_time_ms_by_layer": {k: v * MS for k, v in self_time_by_layer(tree).items()},
        "spans_in_window": len(tree.spans),
    }
    return m, details
