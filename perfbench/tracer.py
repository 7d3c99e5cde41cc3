"""Span recording around the public calls of each agentkv layer.

The tracer lives in the daemon process (see launcher.py). It replaces
functions and methods with wrappers that record one span per call:
name, start and end (``time.perf_counter_ns``, the system-wide monotonic
clock on Linux, so the load generator can line spans up with its own
timestamps), the span that caused it, and a few attributes such as the
request id or the number of tokens. Spans stay in memory and are written
as JSONL when the daemon exits.

Names are replaced at every import site: ``scheduler`` imports ``merge``,
``update_and_fetch`` and ``match`` by name, ``block_pool`` imports
``quantize_tensor``, ``concat_tokens`` and ``slice_tokens``, ``batch``
imports ``quantize_array`` and ``daemon`` imports ``match``. Methods are
patched on their class. Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.resident_peak_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._agent_rid: dict[str, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[..., dict] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Return fn wrapped in a span.

        ``before(*args, **kwargs)`` returns the span's attributes;
        ``after(result, attrs, *args, **kwargs)`` may add to them.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            attrs = before(*args, **kwargs) if before is not None else {}
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                stack.pop()
                attrs["error"] = type(exc).__name__
                tracer.spans.append((sid, parent, name, start, end, attrs))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            if after is not None:
                after(result, attrs, *args, **kwargs)
            tracer.spans.append((sid, parent, name, start, end, attrs))
            return result

        return traced

    def adopt(self, parent: int, fn: Callable[[], None]) -> Callable[[], None]:
        """Run fn on another thread as a ``daemon.work`` span under ``parent``."""
        tracer = self
        work = self.wrap("daemon.work", fn)

        def adopted() -> None:
            stack = tracer._stack()
            stack.append(parent)
            try:
                work()
            finally:
                stack.pop()

        return adopted

    def sample_resident(self, pool) -> None:
        resident = pool.stats().resident_bytes
        if resident > self.resident_peak_bytes:
            self.resident_peak_bytes = resident

    def write_jsonl(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": {
                "resident_peak_bytes": self.resident_peak_bytes,
                "spans": len(self.spans),
            }}) + "\n")
            for sid, parent, name, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "name": name,
                          "start_ns": start, "end_ns": end}
                record.update(attrs)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _nbytes(arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


def install(tracer: Tracer) -> Tracer:
    """Patch every traced call site; call before the daemon is built."""
    from agentkv import batch, block_pool, codec, daemon, engine, persistence, scheduler

    def patch(owner, attr: str, name: str, before=None, after=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), before, after))

    # daemon: one span per request line, on its reader thread; the work it
    # hands to the worker lane becomes a child of that span
    patch(daemon.CacheDaemon, "_dispatch", "daemon.dispatch",
          before=lambda self, conn, message: {
              "op": message.get("op"), "msg": message.get("id"),
              "rid": (message.get("params") or {}).get("request_id"),
          })
    on_worker = daemon.CacheDaemon._on_worker

    def traced_on_worker(self, fn):
        return on_worker(self, tracer.adopt(tracer.current(), fn))

    daemon.CacheDaemon._on_worker = traced_on_worker

    # scheduler
    def submit_before(self, request):
        tracer._agent_rid[request.agent_id] = request.request_id
        return {"rid": request.request_id, "agent": request.agent_id}

    def submit_after(result, attrs, self, request):
        if result is not None:
            attrs["verdict"] = result.verdict.value
            attrs["reuse"] = result.reuse_tokens

    patch(scheduler.Scheduler, "submit", "scheduler.submit", submit_before, submit_after)
    patch(scheduler.Scheduler, "step", "scheduler.step")

    # engine (the synthetic model's own cost, kept apart from cache cost)
    patch(engine.SyntheticEngine, "tokenize", "engine.tokenize",
          before=lambda self, text: {"chars": len(text)})
    patch(engine.SyntheticEngine, "prefill_chunk", "engine.prefill_chunk",
          before=lambda self, agent_id, token_ids, start_position: {
              "agent": agent_id, "rid": tracer._agent_rid.get(agent_id),
              "tokens": len(token_ids),
          })
    patch(engine.SyntheticEngine, "decode_step", "engine.decode_step",
          before=lambda self, b: {
              "agents": list(b.agent_ids),
              "rids": [tracer._agent_rid.get(a) for a in b.agent_ids],
              "batch": b.batch,
          })

    # batch
    def merge_after(result, attrs, caches, spec, max_batch=2):
        attrs["padded"] = result.padded_len

    patch(scheduler, "merge", "batch.merge",
          before=lambda caches, spec, max_batch=2: {"rows": len(caches)},
          after=merge_after)

    def update_after(result, attrs, b, new_k, new_v, spec):
        # bytes from tensor sizes: float32 inputs read, plus every stacked
        # array that np.concatenate rewrote in full
        written = 0
        for layer in b.layers:
            for side in layer.values():
                written += side.packed.nbytes + side.scales.nbytes + side.biases.nbytes
        attrs["bytes"] = _nbytes(new_k) + _nbytes(new_v) + written

    patch(scheduler, "update_and_fetch", "batch.update_and_fetch", after=update_after)

    # prefix
    def match_after(result, attrs, cached, prompt, block_tokens):
        attrs["verdict"] = result.verdict.value
        attrs["reuse"] = result.reuse_tokens

    for owner in (scheduler, daemon):
        patch(owner, "match", "prefix.match",
              before=lambda cached, prompt, block_tokens: {"chars": len(prompt)},
              after=match_after)

    # codec
    patch(block_pool, "quantize_tensor", "codec.quantize_tensor",
          before=lambda values, spec: {"elems": int(np.asarray(values).size)})
    for owner in (codec, batch):
        patch(owner, "quantize_array", "codec.quantize_array",
              before=lambda values, group_size: {"elems": int(np.asarray(values).size)})
    patch(codec, "pack_codes", "codec.pack_codes")
    patch(codec, "f32_to_bf16_bits", "codec.f32_to_bf16_bits")
    patch(block_pool, "concat_tokens", "codec.concat_tokens")
    patch(block_pool, "slice_tokens", "codec.slice_tokens")

    # block pool
    def append_after(result, attrs, self, agent_id, per_layer_kv, new_token_ids, *rest, **kw):
        tracer.sample_resident(self)

    patch(block_pool.BlockPool, "append_tokens", "block_pool.append_tokens",
          before=lambda self, agent_id, per_layer_kv, new_token_ids, *rest, **kw: {
              "agent": agent_id, "tokens": len(new_token_ids),
          },
          after=append_after)
    patch(block_pool.BlockPool, "get_cache", "block_pool.get_cache",
          before=lambda self, agent_id: {"agent": agent_id},
          after=lambda result, attrs, self, agent_id: tracer.sample_resident(self))
    patch(block_pool.BlockPool, "evict_lru", "block_pool.evict_lru")

    # persistence (the pool calls these through the module attribute)
    patch(persistence, "save_agent", "persistence.save_agent",
          before=lambda cache, directory, spec: {
              "agent": cache.agent_id, "bytes": cache.nbytes,
          })

    def load_after(result, attrs, pair, expected_fingerprint):
        attrs["agent"] = result.agent_id
        attrs["bytes"] = result.nbytes

    patch(persistence, "load_agent", "persistence.load_agent", after=load_after)
    return tracer
