"""List the lines of src/agentkv that the program's own paths never run.

    python3 tools/program_lines.py

Runs every program path in-process under ``sys.settrace`` and
``threading.settrace`` (stdlib only; ``coverage`` is not needed):

* the three scenarios through ``agentkv.cli.main``,
* ``capacity`` in each output format and ``inspect`` in each format,
* a daemon served by ``agentkv serve`` on a Unix socket, driven through
  every op: 15 submits over 5 agents under a budget of about two agents
  (so turns evict and reload; the last turn's verdicts are EXTEND, a
  partial EXTEND that truncates, EXACT and DIVERGE, and one request opts
  out of prefix reuse), ``step``, ``run``, ``match``, ``save_all``,
  ``restore``, ``drop``, ``stats``, ``capacity``, and ``shutdown``
  through ``agentkv client``.

It then prints, per ``src/agentkv`` file, the ranges of executable lines
that never ran. A line listed here is reached, if at all, only by tests.
Exits 1 if any program path failed.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "agentkv"
AGENTS = [f"agent{i}" for i in range(5)]

_ran: dict[str, set[int]] = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module or any code inside it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _cli(main, argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"agentkv {' '.join(argv)} exited {code}")


def _request(client, op: str, params: dict | None = None) -> dict:
    reply = client.request(op, params)
    if not reply.get("ok"):
        raise RuntimeError(f"daemon op {op} failed: {reply}")
    return reply["result"]


def daemon_session(main, work: Path) -> Path:
    """Serve on a Unix socket and use every op; returns the cache dir."""
    from agentkv.codec import q4_bytes
    from agentkv.daemon import DaemonClient
    from agentkv.model_spec import preset

    model, prompt_tokens, token_chars = "llama31-8b", 400, 4
    budget = int(q4_bytes(preset(model), prompt_tokens * 5 // 2))
    cache_dir, socket_path = work / "daemon-cache", work / "daemon.sock"
    server = threading.Thread(target=_cli, args=(main, [
        "serve", "--model", model, "--budget", str(budget), "--cache-dir", str(cache_dir),
        "--socket", str(socket_path), "--seed", "0",
    ]))
    server.start()
    deadline = time.monotonic() + 30
    while True:
        try:
            client = DaemonClient(str(socket_path))
            break
        except OSError:
            if time.monotonic() > deadline or not server.is_alive():
                raise
            time.sleep(0.05)

    transcripts = {a: f"{a}:" + "x" * (prompt_tokens * token_chars) for a in AGENTS}
    try:
        for turn in range(3):
            prompts = {}
            for n, agent in enumerate(AGENTS):
                transcript = transcripts[agent]
                prompts[agent] = {  # the last turn takes every verdict
                    2: transcript[: len(transcript) * 3 // 4] + " edit",  # partial EXTEND
                    3: transcript,  # EXACT
                    4: "y" * len(transcript),  # DIVERGE
                }.get(n if turn == 2 else -1, transcript + f" turn {turn} " * 8)
                _request(client, "submit", {
                    "request_id": f"r{turn}.{agent}", "agent_id": agent,
                    "prompt": prompts[agent], "max_tokens": 3,
                    "persistent_cache_prefix": (turn, n) != (2, 1),
                })
            if turn == 0:
                _request(client, "step")
            _request(client, "run")
            generated: dict[str, str] = defaultdict(str)
            for event in client.drain_events():
                if event["kind"] in ("first_token", "token"):
                    generated[event["request_id"]] += event["payload"]["text"]
            for agent in AGENTS:
                transcripts[agent] = prompts[agent] + generated[f"r{turn}.{agent}"]
        _request(client, "match", {"agent_id": AGENTS[0], "prompt": transcripts[AGENTS[0]]})
        _request(client, "save_all")
        _request(client, "restore", {"agent_ids": AGENTS[:2]})
        _request(client, "drop", {"agent_id": AGENTS[4], "delete_disk": True})
        _request(client, "stats")
        _request(client, "capacity", {"model": model})
        _request(client, "step")
    finally:
        client.close()
        _cli(main, ["client", "--address", str(socket_path), "--op", "stats"])
        _cli(main, ["client", "--address", str(socket_path), "--op", "shutdown"])
        server.join(timeout=30)
    return cache_dir


def run_program_paths(work: Path) -> None:
    from agentkv.cli import main

    for name in ("phase5", "routing10", "staggered"):
        _cli(main, ["scenario", name, "--seed", "0", "--format", "json",
                    "--work-dir", str(work / name), "--trace", str(work / f"{name}.jsonl")])
    _cli(main, ["scenario", "phase5", "--seed", "0", "--work-dir", str(work / "phase5-table"),
                "--plot", str(work / "phase5.svg")])
    for fmt in ("table", "json", "tsv"):
        _cli(main, ["capacity", "--format", fmt])
    _cli(main, ["capacity", "--model", "llama31-8b", "--block-rounded"])
    cache_dir = daemon_session(main, work)
    tensor_file = str(next(cache_dir.glob("*.safetensors")))
    for fmt in ("table", "json"):
        _cli(main, ["inspect", tensor_file, "--format", fmt])


def main() -> int:
    sys.path.insert(0, str(SRC))
    started = time.monotonic()
    failure = None
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        threading.settrace(_global)
        sys.settrace(_global)
        try:
            run_program_paths(Path(tmp))
        except Exception as exc:  # report the lines reached so far, then fail
            failure = exc
        finally:
            sys.settrace(None)
            threading.settrace(None)
    total_never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - _ran.get(str(path), set()))
        total_never += len(never)
        detail = f": {ranges(never)}" if never else ""
        print(f"{path.name}: {len(never)} of {len(lines)} executable lines never ran{detail}")
    print(f"total: {total_never} lines never ran ({time.monotonic() - started:.0f} s)")
    if failure is not None:
        print(f"error: a program path failed: {failure!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
