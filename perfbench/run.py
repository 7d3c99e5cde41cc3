"""agentkv benchmark: client-side TTFT and inter-token latency.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A single-process closed-loop load generator drives ``agentkv.daemon``
over a Unix socket with 2 clients. Each client owns its agents, sends
``submit`` and then ``step`` until its request's ``done`` event arrives,
then starts its next turn; it stops starting turns after ``--seconds``.
The daemon runs in its own process (launcher.py), on a cache directory
inside the checkout. Set-up (daemon start plus priming the agents) is
done three times and the median is reported as ``setup_s``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced daemon (spans are
written to perfbench/out/spans-<workload>.jsonl). Every run checks the
program's output and exits 1 if a check fails. ``--workload all`` runs
the three workloads in turn (untraced, then traced with ``--trace 1``)
and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import UNITS, load_spans, per_layer
from stats import failed_share, median, reuse_share, tail
from workloads import (
    CLIENTS,
    WORKLOADS,
    Schedule,
    Turn,
    Workload,
    prompt_tokens,
    reference_token,
    token_text,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
OUT = HERE / "out"
SETUPS = 3
STALL_S = 60.0
MS = 1e-6

END_TO_END_UNITS = {
    "ttft_p50_ms": "ms",
    "ttft_tail_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_tail_ms": "ms",
    "output_tok_s": "tok/s",
    "requests_s": "req/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class CheckFailed(Exception):
    pass


# -- wire ----------------------------------------------------------------------


class Conn:
    """One socket to the daemon; every received line is timestamped."""

    def __init__(self, address: str, tag: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(address)
        self.tag = tag
        self._buffer = b""
        self._counter = 0

    def close(self) -> None:
        self.sock.close()

    def send(self, op: str, params: dict | None = None) -> tuple[str, int]:
        self._counter += 1
        msg_id = f"{self.tag}-{self._counter}"
        data = json.dumps({"id": msg_id, "op": op, "params": params or {}}) + "\n"
        sent = time.perf_counter_ns()
        self.sock.sendall(data.encode("utf-8"))
        return msg_id, sent

    def receive(self) -> list[tuple[int, dict]]:
        """Read what is available (call when readable); returns timed lines."""
        data = self.sock.recv(1 << 20)
        now = time.perf_counter_ns()
        if not data:
            raise ConnectionError("daemon closed the connection")
        self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        return [(now, json.loads(line)) for line in lines if line.strip()]

    def request(self, op: str, params: dict | None = None,
                timeout: float = STALL_S) -> tuple[dict, list[dict]]:
        """Blocking call; returns (response, events that arrived before it)."""
        msg_id, _ = self.send(op, params)
        events = []
        self.sock.settimeout(timeout)
        try:
            while True:
                for _, message in self.receive():
                    if "event" in message:
                        events.append(message["event"])
                    elif message.get("id") == msg_id:
                        return message, events
                    else:
                        raise CheckFailed(f"unexpected line {message}")
        finally:
            self.sock.settimeout(None)


# -- one request ------------------------------------------------------------------


@dataclass
class Record:
    turn: Turn
    client: int
    index: int
    rid: str
    t_submit: int = 0
    t_first: int = 0
    token_times: list[int] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    match: dict | None = None
    done: bool = False
    generated: int = -1
    error: str = ""

    @property
    def prompt_tokens(self) -> int:
        return prompt_tokens(self.turn.prompt)

    def transcript(self) -> str:
        return self.turn.prompt + "".join(self.texts)

    def check(self) -> list[str]:
        """Every way this request's output differs from what it must be."""
        turn = self.turn
        problems = []
        if self.error:
            problems.append(f"{self.rid}: {self.error}")
            return problems
        if not self.done or self.generated != turn.max_tokens:
            problems.append(f"{self.rid}: generated {self.generated} of {turn.max_tokens}")
        if len(self.tokens) != turn.max_tokens:
            problems.append(f"{self.rid}: {len(self.tokens)} token events")
        verdict = (self.match or {}).get("verdict")
        reuse = (self.match or {}).get("reuse_tokens")
        if verdict != turn.verdict or reuse != turn.reuse_tokens:
            problems.append(f"{self.rid}: verdict {verdict}/{reuse}, expected "
                            f"{turn.verdict}/{turn.reuse_tokens}")
        for i, (token, text) in enumerate(zip(self.tokens, self.texts)):
            want = reference_token(turn.agent, self.prompt_tokens + i)
            if token != want or text != token_text(want):
                problems.append(f"{self.rid}: token {i} is {token}/{text!r}, expected {want}")
                break
        return problems

    def on_event(self, t: int, event: dict) -> None:
        kind = event["kind"]
        payload = event["payload"]
        if kind in ("first_token", "token"):
            if kind == "first_token":
                self.t_first = t
            self.token_times.append(t)
            self.tokens.append(payload["token_id"])
            self.texts.append(payload["text"])
        elif kind == "done":
            self.done = True
            self.generated = payload.get("generated", -1)
            if "error" in payload:
                self.error = f"done with error: {payload['error']}"


# -- closed loop ------------------------------------------------------------------


class Client:
    """Closed loop: one request in flight, one message in flight.

    A client starts turns until the deadline has passed and it has
    completed at least ``min_requests`` (the count window), so the exact
    counts are always taken over the same requests.
    """

    def __init__(self, index: int, conn: Conn, schedule: Schedule,
                 transcripts: dict[str, str], deadline: int, min_requests: int) -> None:
        self.index = index
        self.conn = conn
        self.schedule = schedule
        self.transcripts = transcripts
        self.deadline = deadline
        self.min_requests = min_requests
        self.records: list[Record] = []
        self.current: Record | None = None
        self.pending: tuple[str, str, int] | None = None  # (op, msg id, sent)
        self.submit_rtt_ms: list[float] = []
        self.step_rtt_ms: list[tuple[str, float]] = []
        self.errors = 0
        self.finished = False
        self.t_end = 0

    def start_next(self, now: int) -> None:
        if now >= self.deadline and len(self.records) >= self.min_requests:
            self.finished = True
            self.t_end = now
            return
        turn = self.schedule.next(self.transcripts)
        rec = Record(turn=turn, client=self.index, index=len(self.records),
                     rid=f"{self.conn.tag}-r{len(self.records)}")
        self.records.append(rec)
        self.current = rec
        msg_id, sent = self.conn.send("submit", {
            "request_id": rec.rid, "agent_id": turn.agent,
            "prompt": turn.prompt, "max_tokens": turn.max_tokens,
        })
        rec.t_submit = sent
        self.pending = ("submit", msg_id, sent)

    def _step(self) -> None:
        msg_id, sent = self.conn.send("step")
        self.pending = ("step", msg_id, sent)

    def _finish(self, now: int) -> None:
        rec = self.current
        if not rec.error:
            self.transcripts[rec.turn.agent] = rec.transcript()
        self.current = None
        self.start_next(now)

    def on_message(self, t: int, message: dict) -> None:
        if "event" in message:
            event = message["event"]
            if self.current is None or event.get("request_id") != self.current.rid:
                raise CheckFailed(f"client {self.index}: stray event {event}")
            self.current.on_event(t, event)
            return
        op, msg_id, sent = self.pending
        if message.get("id") != msg_id:
            raise CheckFailed(f"client {self.index}: response {message} while waiting for {msg_id}")
        self.pending = None
        rec = self.current
        if not message.get("ok"):
            self.errors += 1
            rec.error = f"{op} refused: {message.get('error')}"
            self.finished = True  # the run is already wrong; stop this client
            self.t_end = t
            return
        if op == "submit":
            self.submit_rtt_ms.append((t - sent) * MS)
            rec.match = message["result"].get("match")
            self._step()
            return
        self.step_rtt_ms.append((msg_id, (t - sent) * MS))
        if rec.done:
            if rec.error:
                self.errors += 1
            self._finish(t)
        else:
            self._step()


def closed_loop(clients: list[Client]) -> tuple[int, int]:
    """Drive the clients until each has finished; returns (start, end) in ns."""
    selector = selectors.DefaultSelector()
    try:
        for c in clients:
            selector.register(c.conn.sock, selectors.EVENT_READ, c)
        start = time.perf_counter_ns()
        for c in clients:
            c.start_next(start)
        while not all(c.finished for c in clients):
            ready = selector.select(timeout=STALL_S)
            if not ready:
                raise CheckFailed(f"no reply from the daemon for {STALL_S:.0f} s")
            for key, _ in ready:
                client = key.data
                for t, message in client.conn.receive():
                    client.on_message(t, message)
        return start, max(c.t_end for c in clients)
    finally:
        selector.close()


# -- daemon process ------------------------------------------------------------------


class Daemon:
    """One launcher.py process and its cache directory."""

    def __init__(self, workdir: Path, budget_bytes: int, spans: Path | None,
                 cache_dir: Path | None = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = cache_dir or workdir / "cache"
        # relative to the checkout: AF_UNIX paths are limited to 108 bytes
        self.address = os.path.relpath(workdir / "d.sock", ROOT)
        self.spans = spans
        cmd = [sys.executable, str(HERE / "launcher.py"), "--socket", self.address,
               "--cache-dir", str(self.cache_dir), "--budget-bytes", str(budget_bytes)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.t_start = time.perf_counter_ns()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            ready = selectors.DefaultSelector()
            ready.register(self.proc.stdout, selectors.EVENT_READ)
            if not ready.select(timeout=STALL_S) or self.proc.stdout.readline() != b"READY\n":
                raise CheckFailed("daemon did not start")
            ready.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise CheckFailed("VmHWM missing from /proc status")

    def connect(self, tag: str) -> Conn:
        return Conn(self.address, tag)

    def stop(self) -> None:
        """Ask for shutdown, wait for the process to end, kill if it hangs."""
        if self.proc.poll() is None:
            try:
                conn = self.connect("stop")
                try:
                    conn.request("shutdown", timeout=10)
                finally:
                    conn.close()
            except (OSError, CheckFailed, ValueError):
                pass
            try:
                self.proc.wait(timeout=STALL_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_batch(conn: Conn, turns: list[tuple[str, Turn]]) -> list[Record]:
    """Submit (rid, turn) pairs and let the scheduler run them to completion."""
    records = []
    for rid, turn in turns:
        rec = Record(turn=turn, client=-1, index=len(records), rid=rid)
        response, _ = conn.request("submit", {
            "request_id": rid, "agent_id": turn.agent,
            "prompt": turn.prompt, "max_tokens": turn.max_tokens,
        })
        if not response.get("ok"):
            raise CheckFailed(f"{rid}: submit refused: {response.get('error')}")
        rec.match = response["result"].get("match")
        records.append(rec)
    response, events = conn.request("run", timeout=120)
    if not response.get("ok"):
        raise CheckFailed(f"run refused: {response.get('error')}")
    by_rid = {r.rid: r for r in records}
    for event in events:
        by_rid[event["request_id"]].on_event(0, event)
    return records


def prime(daemon: Daemon, schedules: list[Schedule]) -> dict[str, str]:
    """Give every agent its first turn; returns each agent's transcript."""
    turns = []
    for s in schedules:
        for agent, prompt in s.prime():
            turns.append((f"prime-{agent}", Turn(agent, prompt, 1, "", 0)))
    conn = daemon.connect("prime")
    try:
        records = run_batch(conn, turns)
    finally:
        conn.close()
    transcripts = {}
    for rec in records:
        # a first turn has no cache to match against
        rec.match = {"verdict": "", "reuse_tokens": 0} if rec.match is None else rec.match
        problems = rec.check()
        if problems:
            raise CheckFailed("; ".join(problems))
        transcripts[rec.turn.agent] = rec.transcript()
    return transcripts


def restart_check(daemon: Daemon, workload: Workload, workdir: Path,
                  transcripts: dict[str, str]) -> dict:
    """save_all, restart on the same cache directory, resubmit every agent.

    Each resubmission must be an EXACT hit and the new daemon must run no
    prefill at all.
    """
    conn = daemon.connect("save")
    try:
        response, _ = conn.request("save_all")
        if not response.get("ok"):
            raise CheckFailed(f"save_all refused: {response.get('error')}")
    finally:
        conn.close()
    daemon.stop()
    again = Daemon(workdir, workload.budget_bytes, None, cache_dir=daemon.cache_dir)
    try:
        conn = again.connect("restart")
        try:
            turns = [(f"restart-{agent}",
                      Turn(agent, text, 1, "exact", prompt_tokens(text)))
                     for agent, text in sorted(transcripts.items())]
            records = run_batch(conn, turns)
            stats, _ = conn.request("stats")
        finally:
            conn.close()
    finally:
        again.stop()
    problems = [p for rec in records for p in rec.check()]
    prefill = stats["result"]["engine"]["prefill_tokens"]
    if prefill != 0:
        problems.append(f"restarted daemon prefilled {prefill} tokens")
    if problems:
        raise CheckFailed("restart check: " + "; ".join(problems))
    return {"agents": len(records), "exact_hits": len(records), "prefill_tokens": prefill}


# -- run conditions ------------------------------------------------------------------


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    real = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def conditions(seed: int, cache_dir: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache_fs": filesystem_type(cache_dir),
        "flush": "fsync on (as the program does it)",
        "seed": seed,
        "clients": CLIENTS,
        "loop": "closed",
    }


# -- one workload --------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    workdir = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    spans_path = OUT / f"spans-{workload.name}.jsonl" if trace else None
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUPS):
            shutil.rmtree(workdir / "cache", ignore_errors=True)
            daemon = Daemon(workdir, workload.budget_bytes, spans_path)
            try:
                schedules = [Schedule(workload, seed, c) for c in range(CLIENTS)]
                transcripts = prime(daemon, schedules)
            except BaseException:
                daemon.stop()
                raise
            setups.append((time.perf_counter_ns() - daemon.t_start) / 1e9)
            if i < SETUPS - 1:
                daemon.stop()
        return measure(workload, seed, seconds, trace, daemon, schedules,
                       transcripts, setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, trace, daemon, schedules, transcripts,
            setups, workdir) -> dict:
    try:
        conns = [daemon.connect(f"c{i}") for i in range(CLIENTS)]
        try:
            deadline = time.perf_counter_ns() + seconds * 10**9
            clients = [Client(i, conns[i], schedules[i], transcripts, deadline,
                              workload.count_window)
                       for i in range(CLIENTS)]
            t0, t1 = closed_loop(clients)
        finally:
            for conn in conns:
                conn.close()
        rss = daemon.peak_rss_mib()
        restart = None
        if workload.restart_check:
            restart = restart_check(daemon, workload, workdir, transcripts)
    finally:
        daemon.stop()

    records = [r for c in clients for r in c.records]
    problems = [p for r in records for p in r.check()]
    counted = [r for r in records if r.index < workload.count_window]
    ok = [r for r in records if not r.error and r.done]
    ttft = [(r.t_first - r.t_submit) * MS for r in ok if r.t_first]
    itl = [(b - a) * MS for r in ok for a, b in zip(r.token_times, r.token_times[1:])]
    wall_s = (t1 - t0) / 1e9
    failed = sum(1 for r in records if r.error or not r.done)
    digest = hashlib.sha256()
    for r in sorted(counted, key=lambda r: (r.turn.agent, r.client, r.index)):
        digest.update(f"{r.turn.agent}:{','.join(map(str, r.tokens))};".encode())

    e2e = {
        "ttft_p50_ms": median(ttft),
        "ttft_tail_ms": tail(ttft)["value"],
        "itl_p50_ms": median(itl),
        "itl_tail_ms": tail(itl)["value"],
        "output_tok_s": sum(len(r.tokens) for r in ok) / wall_s,
        "requests_s": len(ok) / wall_s,
        "peak_rss_mib": rss,
        "setup_s": median(setups),
    }
    report = {
        "workload": workload.name,
        "trace": trace,
        "conditions": conditions(seed, workdir / "cache"),
        "seconds": seconds,
        "measured_wall_s": wall_s,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "samples": {
            "ttft_ms": {"n": len(ttft), "tail": tail(ttft), "values": ttft},
            "itl_ms": {"n": len(itl), "tail": tail(itl), "values": itl},
            "requests": len(ok),
            "setup_s": setups,
        },
        "reuse_share": {
            "value": reuse_share((r.match["reuse_tokens"], r.prompt_tokens)
                                 for r in counted if r.match),
            "unit": "ratio", "n": len(counted),
            "over": f"the first {workload.count_window} requests of each client",
        },
        "failed_share": {"value": failed_share(failed, len(records)), "unit": "ratio",
                         "n": len(records)},
        "token_digest": digest.hexdigest()[:16],
        "restart_check": restart,
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
    }
    if trace:
        meta, spans = load_spans(daemon.spans)
        client_side = {
            "submit_rtt_ms": [x for c in clients for x in c.submit_rtt_ms],
            "step_rtt_ms": [x for c in clients for x in c.step_rtt_ms],
            "errors": sum(c.errors for c in clients),
        }
        metrics, details = per_layer(spans, meta, (t0, t1), client_side,
                                     {r.rid for r in counted})
        report["per_layer"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        report["per_layer_details"] = details
    return report


# -- output ----------------------------------------------------------------------------


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (trace {int(report['trace'])}) ==")
    print("conditions: " + json.dumps(report["conditions"], sort_keys=True))
    samples = report["samples"]
    for name, entry in report["end_to_end"].items():
        note = ""
        timing = samples.get(name.split("_")[0] + "_ms")  # ttft_ms or itl_ms
        if timing is not None:
            note = f"n={timing['n']}"
            if name.endswith("tail_ms"):
                note += f" p{timing['tail']['percentile']}"
        elif name in ("output_tok_s", "requests_s"):
            note = f"n={samples['requests']} requests in {report['measured_wall_s']:.2f} s"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.3f}" for s in samples["setup_s"])
        print(f"  {name:<16} {entry['value']:>12.4f} {entry['unit']:<6} {note}")
    for name in ("reuse_share", "failed_share"):
        entry = report[name]
        print(f"  {name:<16} {entry['value']:>12.4f} {entry['unit']:<6} n={entry['n']}")
    print(f"  token digest {report['token_digest']}; restart check {report['restart_check']}")
    for name, entry in report.get("per_layer", {}).items():
        n = report["per_layer_details"]["samples"].get(name)
        print(f"  {name:<40} {entry['value']:>14.4f} {entry['unit']:<10}"
              + (f" n={n}" if n is not None else ""))
    if "per_layer_details" in report:
        self_ms = report["per_layer_details"]["self_time_ms_by_layer"]
        print("  self time by layer (ms): " + ", ".join(
            f"{k}={v:.1f}" for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])))
    for problem in report["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{report['workload']}-s{report['conditions']['seed']}-t{int(report['trace'])}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=1))
    print(f"full report with raw samples: {path.relative_to(ROOT)}")


def result_line(reports: list[dict], trace: bool, prefix: bool) -> dict:
    metrics = {}
    for r in reports:
        section = r["per_layer"] if trace else r["end_to_end"]
        for name, entry in section.items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = entry
    return {
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="agentkv closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "agentkv" / "daemon.py").is_file():
        print(f"agentkv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the daemon socket is addressed relative to the checkout root
    os.chdir(ROOT)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [False, True] if args.workload == "all" and args.trace else [bool(args.trace)]
    reports = {}
    for trace in passes:
        for name in names:
            try:
                report = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            except (CheckFailed, ConnectionError, OSError) as exc:
                print(f"{name}: run failed: {exc}", file=sys.stderr)
                return 1
            print_report(report)
            reports[(name, trace)] = report

    if len(passes) == 2:
        print("tracing overhead (traced minus untraced):")
        for name in names:
            plain = reports[(name, False)]["end_to_end"]
            traced = reports[(name, True)]["end_to_end"]
            print("  " + name + ": " + ", ".join(
                f"{m} {traced[m]['value'] - plain[m]['value']:+.3f} ms"
                for m in ("ttft_p50_ms", "itl_p50_ms")))
    final_trace = passes[-1]
    final = [r for (_, t), r in reports.items() if t == final_trace]
    line = result_line(final, final_trace, prefix=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
