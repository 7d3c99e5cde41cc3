"""Command-line entry point: capacity tables, file inspection, scenarios,
codec micro-benchmarks, and daemon server/client modes."""

from __future__ import annotations

import argparse
import json
import sys
import time
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
    if args.config:
        config = DaemonConfig.from_file(args.config)
    else:
        config = DaemonConfig()
    if args.model:
        config.model = args.model
    if args.budget:
        config.budget_bytes = parse_budget(args.budget)
    if args.chunk_tokens:
        config.chunk_tokens = args.chunk_tokens
    if args.max_batch:
        config.max_batch = args.max_batch
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    if args.socket:
        config.socket_path = args.socket
    if args.tcp_port is not None:
        config.tcp_port = args.tcp_port
    if args.seed is not None:
        config.seed = args.seed
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
        budget_bytes=int(parse_budget(args.budget)) if args.budget else None,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            if "traces" in report:
                for mode, events in sorted(report["traces"].items()):
                    for event in events:
                        fh.write(json.dumps({"mode": mode, **event}, sort_keys=True) + "\n")
            else:
                for mode in ("sequential", "batched"):
                    for event in report[mode]["trace"]:
                        fh.write(json.dumps({"mode": mode, **event}, sort_keys=True) + "\n")
    if args.plot:
        if "phases" not in report:
            print("error: --plot requires a phased scenario", file=sys.stderr)
            return 2
        Path(args.plot).write_text(reuse_bar_svg(report), encoding="utf-8")
    if args.format == "json":
        slim = {k: v for k, v in report.items() if k != "traces"}
        if args.name == "staggered":
            slim = {
                **{k: v for k, v in report.items() if k not in ("sequential", "batched")},
                "sequential": {k: v for k, v in report["sequential"].items() if k != "trace"},
                "batched": {k: v for k, v in report["batched"].items() if k != "trace"},
            }
        print(json.dumps(slim, sort_keys=True))
    else:
        print(render_report(report))
    checks = report["checks"]
    return 0 if all(checks.values()) else 1


def _cmd_bench_codec(args: argparse.Namespace) -> int:
    import numpy as np

    from .codec import dequantize_tensor, quantize_tensor
    from .model_spec import GLOBAL, ModelCacheSpec

    spec = ModelCacheSpec(
        model_id="bench",
        num_layers=1,
        num_kv_heads=args.heads,
        num_query_heads=args.heads,
        k_head_dim=args.dim,
        v_head_dim=args.dim,
        layer_kinds=(GLOBAL,),
        block_tokens=256,
        group_size=args.group,
    )
    rng = np.random.default_rng(args.seed)
    tensor = rng.standard_normal((args.heads, args.tokens, args.dim)).astype(np.float32)
    start = time.perf_counter()
    q = quantize_tensor(tensor, spec)
    mid = time.perf_counter()
    dequantize_tensor(q)
    end = time.perf_counter()
    elements = tensor.size
    print(
        json.dumps(
            {
                "elements": elements,
                "quantize_s": round(mid - start, 6),
                "dequantize_s": round(end - mid, 6),
                "quantize_melem_per_s": round(elements / (mid - start) / 1e6, 1),
                "dequantize_melem_per_s": round(elements / (end - mid) / 1e6, 1),
                "q4_bytes": q.nbytes,
                "fp32_bytes": tensor.nbytes,
            },
            sort_keys=True,
        )
    )
    return 0


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

    p = sub.add_parser("serve", help="run the cache daemon")
    p.add_argument("--config", default="")
    p.add_argument("--model", default="")
    p.add_argument("--budget", default="")
    p.add_argument("--chunk-tokens", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=0)
    p.add_argument("--cache-dir", default="")
    p.add_argument("--socket", default="")
    p.add_argument("--tcp-port", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
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

    p = sub.add_parser("bench-codec", help="codec throughput micro-benchmark")
    p.add_argument("--tokens", type=int, default=4096)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--group", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench_codec)

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
