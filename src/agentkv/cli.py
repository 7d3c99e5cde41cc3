"""Command-line entry point: capacity tables, file inspection, scenarios,
and daemon server/client modes."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .capacity import (
    capacity_table,
    parse_budget,
    parse_contexts,
    render_json,
    render_table,
    render_tsv,
)
from .daemon import CacheDaemon, DaemonClient, DaemonConfig
from .errors import AgentKVError
from .model_spec import PRESET_NAMES, preset
from .persistence import inspect_tensor_file
from .scenarios import SCENARIO_NAMES, render_report, reuse_bar_svg, run_scenario


def _cmd_capacity(args: argparse.Namespace) -> int:
    spec = preset(args.model)
    budget = parse_budget(args.budget)
    contexts = parse_contexts(args.contexts)
    rows = capacity_table(spec, budget, contexts, block_rounded=args.block_rounded)
    if args.format == "json":
        print(render_json(spec, budget, rows))
    elif args.format == "tsv":
        print(render_tsv(rows))
    else:
        print(render_table(spec, budget, rows))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    summary = inspect_tensor_file(args.path)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "header_bytes": summary.header_bytes,
                    "data_bytes": summary.data_bytes,
                    "total_bytes": summary.total_bytes,
                    "tensors": [
                        {
                            "name": t.name,
                            "dtype": t.dtype,
                            "shape": list(t.shape),
                            "nbytes": t.nbytes,
                        }
                        for t in summary.tensors
                    ],
                },
                sort_keys=True,
            )
        )
        return 0
    print(
        f"header {summary.header_bytes} B, data {summary.data_bytes} B, "
        f"file {summary.total_bytes} B, {len(summary.tensors)} tensors"
    )
    print(f"{'name':<24} {'dtype':<6} {'shape':<18} {'bytes':>10}")
    for t in summary.tensors:
        print(f"{t.name:<24} {t.dtype:<6} {str(list(t.shape)):<18} {t.nbytes:>10}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    config = DaemonConfig(
        model=args.model,
        chunk_tokens=args.chunk_tokens,
        max_batch=args.max_batch,
        cache_dir=args.cache_dir,
        socket_path=args.socket,
        tcp_port=args.tcp_port,
        seed=args.seed,
    )
    if args.budget:
        config.budget_bytes = parse_budget(args.budget)
    daemon = CacheDaemon(config)
    address = daemon.bind()
    print(f"listening on {address}", flush=True)
    daemon.serve_forever()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    params = json.loads(args.params) if args.params else {}
    client = DaemonClient(args.address)
    try:
        response = client.request(args.op, params)
        for event in client.drain_events():
            print(json.dumps({"event": event}, sort_keys=True))
        print(json.dumps(response, sort_keys=True))
        return 0 if response.get("ok") else 1
    finally:
        client.close()


def _cmd_scenario(args: argparse.Namespace) -> int:
    report = run_scenario(
        args.name,
        Path(args.work_dir),
        seed=args.seed,
        model=args.model,
        chunk_tokens=args.chunk_tokens,
        max_batch=args.max_batch,
        budget_bytes=parse_budget(args.budget) if args.budget else None,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for mode, events in report["traces"].items():
                for event in events:
                    fh.write(json.dumps({"mode": mode, **event}, sort_keys=True) + "\n")
    if args.plot:
        if "phases" not in report:
            print("error: --plot requires a phased scenario", file=sys.stderr)
            return 2
        Path(args.plot).write_text(reuse_bar_svg(report), encoding="utf-8")
    if args.format == "json":
        slim = {k: v for k, v in report.items() if k != "traces"}
        print(json.dumps(slim, sort_keys=True))
    else:
        print(render_report(report))
    checks = report["checks"]
    return 0 if all(checks.values()) else 1


def _port(text: str) -> int:
    """The --tcp-port type: 0-65535, where 0 picks a free port."""
    if text.isdecimal() and int(text) <= 65535:
        return int(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not a port in 0-65535")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentkv",
        description="Persistent quantized KV-cache engine utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="agent capacity table for a model and budget")
    p.add_argument("--model", default="gemma3-12b", choices=PRESET_NAMES)
    p.add_argument("--budget", default="10.2GB")
    p.add_argument("--contexts", default="4k,8k,16k,32k")
    p.add_argument("--format", default="table", choices=("table", "json", "tsv"))
    p.add_argument("--block-rounded", action="store_true")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("inspect", help="print a cache tensor file's header")
    p.add_argument("path")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=_cmd_inspect)

    defaults = DaemonConfig()
    p = sub.add_parser(
        "serve", help="run the cache daemon; @FILE reads flags from FILE, one per line",
        fromfile_prefix_chars="@",
    )
    p.add_argument("--model", default=defaults.model)
    p.add_argument("--budget", default="", help="default 10.2GB")
    p.add_argument("--chunk-tokens", type=int, default=defaults.chunk_tokens)
    p.add_argument("--max-batch", type=int, default=defaults.max_batch)
    p.add_argument("--cache-dir", default=defaults.cache_dir)
    p.add_argument("--socket", default=defaults.socket_path)
    p.add_argument("--tcp-port", type=_port, default=defaults.tcp_port)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="send one request to a running daemon")
    p.add_argument("--address", required=True, help="socket path or host:port")
    p.add_argument("--op", required=True)
    p.add_argument("--params", default="")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("scenario", help="run a scripted multi-agent scenario")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="desk")
    p.add_argument("--chunk-tokens", type=int, default=64)
    p.add_argument("--max-batch", type=int, default=2)
    p.add_argument("--budget", default="")
    p.add_argument("--work-dir", default="agentkv-scenario-work")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--trace", default="", help="write the event trace as JSON lines")
    p.add_argument("--plot", default="", help="write an SVG reuse chart")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AgentKVError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer went away (e.g. piped into head); exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ConnectionError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
