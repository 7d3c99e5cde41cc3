"""Host one agentkv CacheDaemon for the benchmark.

    python3 perfbench/launcher.py --socket PATH --cache-dir DIR \
        --budget-bytes N [--spans OUT.jsonl]

The daemon uses the ``llama31-8b`` spec, 512-token prefill chunks and
decode batches of 2. It prints ``READY`` on stdout once the socket is
bound and serves until a client sends ``shutdown``. With ``--spans`` the
layers are wrapped by tracer.py first and the spans are written to that
file on exit; otherwise the process is identical, so the traced and the
untraced runs differ only by tracing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from workloads import ENGINE_SEED

ROOT = Path(__file__).resolve().parent.parent
MODEL = "llama31-8b"
CHUNK_TOKENS = 512
MAX_BATCH = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--budget-bytes", type=int, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = install(Tracer())

    from agentkv.daemon import CacheDaemon, DaemonConfig

    daemon = CacheDaemon(
        DaemonConfig(
            model=MODEL,
            budget_bytes=args.budget_bytes,
            chunk_tokens=CHUNK_TOKENS,
            max_batch=MAX_BATCH,
            cache_dir=args.cache_dir,
            socket_path=args.socket,
            seed=ENGINE_SEED,
        )
    )
    daemon.bind()
    print("READY", flush=True)
    daemon.serve_forever()
    if tracer is not None:
        tracer.write_jsonl(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
