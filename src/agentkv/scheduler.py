"""Single-lane cooperative scheduler for chunked prefill and batched decode.

One step() executes exactly one unit of work: either one prefill chunk
for the next agent in round-robin order, or one batched decode step for
the decode-ready agents (up to max_batch). When both kinds of work exist
the scheduler alternates units, so a late request's prefill interleaves
with ongoing decode from the next step boundary.

On submit, the prompt is matched against the agent's cached transcript:
EXACT and EXTEND matches skip engine prefill for every reused token
(partial extends truncate the cache to a whole-block boundary first);
DIVERGE drops the stale cache and prefills from scratch. Decoded tokens
extend the transcript, so a later prompt built on top of it extends the
cache across phases.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .batch import merge, update_and_fetch
from .block_pool import BlockPool
from .blocks import CacheState
from .engine import Engine
from .errors import AgentKVError, InvalidArgumentError, NotFoundError
from .model_spec import ModelCacheSpec
from .prefix import MatchResult, Verdict, match

__all__ = ["Event", "EventKind", "Request", "Scheduler"]

# A finished request's id stays refused until this many later requests have
# finished: the reuse horizon of docs/FORMAT.md.
_FINISHED_IDS_KEPT = 4096


class EventKind(Enum):
    FIRST_TOKEN = "first_token"
    TOKEN = "token"
    DONE = "done"
    CACHE_SAVED = "cache_saved"
    CACHE_LOADED = "cache_loaded"
    EVICTED = "evicted"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    request_id: str
    payload: dict
    tick: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "request_id": self.request_id,
            "payload": self.payload,
            "tick": self.tick,
        }


@dataclass(frozen=True)
class Request:
    request_id: str
    agent_id: str
    prompt: str
    max_tokens: int
    persistent_cache_prefix: bool = True


@dataclass
class _Active:
    request: Request
    pending_ids: list[int]
    pending_text: str
    pending_offsets: list[int]
    prompt_tokens: int
    reused_tokens: int
    generated: int = 0


class Scheduler:
    """Owns the engine and pool mutations on one logical lane.

    Holds only in-flight state: a request leaves the table when its DONE
    event (which carries its token accounting) is emitted, and events wait
    in one pending list until ``step``, ``run_until_idle``, ``save_all``,
    ``restore`` or ``drain`` hands them out. A finished request leaves its
    id behind, refused for reuse until ``_FINISHED_IDS_KEPT`` later
    requests have finished.
    """

    def __init__(
        self,
        pool: BlockPool,
        engine: Engine,
        chunk_tokens: int = 512,
        max_batch: int = 2,
    ) -> None:
        if chunk_tokens < 1 or max_batch < 1:
            raise InvalidArgumentError("chunk_tokens and max_batch must be >= 1")
        self.pool = pool
        self.engine = engine
        self.spec: ModelCacheSpec = pool.spec
        self.chunk_tokens = chunk_tokens
        self.max_batch = max_batch
        self._requests: dict[str, _Active] = {}
        # ids of the last _FINISHED_IDS_KEPT finished requests, oldest first
        self._finished_ids: dict[str, None] = {}
        self._prefill_queue: deque[str] = deque()
        self._decode_ready: deque[str] = deque()
        self._last_unit: str | None = None
        self._tick = 0
        self._events: list[Event] = []
        self._lock = threading.RLock()
        pool.set_event_sink(self._pool_event)

    # -- events --------------------------------------------------------------

    def _emit(self, kind: EventKind, request_id: str, payload: dict) -> None:
        self._tick += 1
        self._events.append(Event(kind, request_id, payload, self._tick))

    def _pool_event(self, kind: str, agent_id: str, nbytes: int) -> None:
        mapping = {
            "saved": EventKind.CACHE_SAVED,
            "loaded": EventKind.CACHE_LOADED,
            "evicted": EventKind.EVICTED,
        }
        self._emit(mapping[kind], "", {"agent_id": agent_id, "bytes": nbytes})

    def drain(self) -> list[Event]:
        """Return the events emitted since the last hand-out, oldest first."""
        with self._lock:
            out = self._events
            self._events = []
            return out

    # -- submission ----------------------------------------------------------

    def submit(self, request: Request) -> MatchResult | None:
        """Enqueue a request; returns the prefix-match verdict, if any."""
        with self._lock:
            if request.request_id in self._requests or request.request_id in self._finished_ids:
                raise InvalidArgumentError(
                    f"duplicate request_id {request.request_id!r}"
                )
            if request.max_tokens < 1:
                raise InvalidArgumentError("max_tokens must be >= 1")
            for active in self._requests.values():
                if active.request.agent_id == request.agent_id:
                    raise InvalidArgumentError(
                        f"agent {request.agent_id!r} already has an in-flight request"
                    )

            result: MatchResult | None = None
            suffix = request.prompt
            reused = 0
            if not request.persistent_cache_prefix:
                with contextlib.suppress(NotFoundError):
                    self.pool.drop_agent(request.agent_id, delete_disk=True)
            elif self.pool.agent_state(request.agent_id) is not CacheState.COLD:
                cache = self.pool.get_cache(request.agent_id)
                result = match(cache, request.prompt, self.spec.block_tokens)
                if result.verdict is Verdict.DIVERGE:
                    # stale context: drop and rebuild from scratch
                    self.pool.drop_agent(request.agent_id, delete_disk=True)
                else:
                    if result.reuse_tokens < cache.token_count:
                        self.pool.truncate_agent(request.agent_id, result.reuse_tokens)
                    suffix = result.suffix_text
                    reused = result.reuse_tokens

            ids, offsets = self.engine.tokenize(suffix)
            active = _Active(
                request=request,
                pending_ids=ids,
                pending_text=suffix,
                pending_offsets=offsets,
                prompt_tokens=reused + len(ids),
                reused_tokens=reused,
            )
            self._requests[request.request_id] = active
            if ids:
                self._prefill_queue.append(request.request_id)
            else:
                self._decode_ready.append(request.request_id)
            return result

    # -- stepping ------------------------------------------------------------

    def has_work(self) -> bool:
        with self._lock:
            return bool(self._prefill_queue or self._decode_ready)

    def step(self) -> list[Event]:
        """Run one unit of work and return every pending event."""
        with self._lock:
            has_prefill = bool(self._prefill_queue)
            has_decode = bool(self._decode_ready)
            if not has_prefill and not has_decode:
                return self.drain()
            if has_prefill and has_decode:
                unit = "decode" if self._last_unit == "prefill" else "prefill"
            else:
                unit = "prefill" if has_prefill else "decode"
            if unit == "prefill":
                self._prefill_unit()
            else:
                self._decode_unit()
            self._last_unit = unit
            return self.drain()

    def run_until_idle(self) -> list[Event]:
        """Step until no work remains; returns every pending event."""
        events = self.drain()
        while self.has_work():
            events.extend(self.step())
        return events

    def _finish(self, request_id: str, error: str | None = None) -> None:
        """Emit the request's DONE event with its accounting and forget it."""
        active = self._requests.pop(request_id)
        payload = {
            "generated": active.generated,
            "prompt_tokens": active.prompt_tokens,
            "reused_tokens": active.reused_tokens,
        }
        if error is not None:
            payload["error"] = error
        self._emit(EventKind.DONE, request_id, payload)
        self._finished_ids[request_id] = None
        if len(self._finished_ids) > _FINISHED_IDS_KEPT:
            del self._finished_ids[next(iter(self._finished_ids))]

    def _prefill_unit(self) -> None:
        request_id = self._prefill_queue.popleft()
        active = self._requests[request_id]
        take = min(self.chunk_tokens, len(active.pending_ids))
        chunk_ids = active.pending_ids[:take]
        del active.pending_ids[:take]
        if active.pending_ids:
            cut = active.pending_offsets[take]
        else:
            cut = len(active.pending_text)
        chunk_text = active.pending_text[:cut]
        chunk_offsets = active.pending_offsets[:take]
        active.pending_text = active.pending_text[cut:]
        active.pending_offsets = [o - cut for o in active.pending_offsets[take:]]

        agent_id = active.request.agent_id
        try:
            start = (
                self.pool.get_cache(agent_id).token_count
                if self.pool.agent_state(agent_id) is not CacheState.COLD
                else 0
            )
            kv = self.engine.prefill_chunk(agent_id, chunk_ids, start)
            self.pool.append_tokens(agent_id, kv, chunk_ids, chunk_text, chunk_offsets)
        except AgentKVError as exc:
            self._finish(request_id, f"prefill failed: {exc}")
            return
        if active.pending_ids:
            self._prefill_queue.append(request_id)
        else:
            self._decode_ready.append(request_id)

    def _decode_unit(self) -> None:
        request_ids = [self._decode_ready.popleft() for _ in
                       range(min(self.max_batch, len(self._decode_ready)))]
        agents = [self._requests[r].request.agent_id for r in request_ids]
        try:
            caches = [self.pool.get_cache(a) for a in agents]
            batch = merge(caches, self.spec, max_batch=self.max_batch)
            token_ids, texts, new_k, new_v = self.engine.decode_step(batch)
            rows_kv = update_and_fetch(batch, new_k, new_v, self.spec)
        except AgentKVError as exc:
            for request_id in request_ids:
                self._finish(request_id, f"decode failed: {exc}")
            return

        survivors = []
        for row, request_id in enumerate(request_ids):
            active = self._requests[request_id]
            try:
                self.pool.append_tokens(
                    agents[row], rows_kv[row], [token_ids[row]], texts[row], [0]
                )
            except AgentKVError as exc:
                self._finish(request_id, f"decode failed: {exc}")
                continue
            active.generated += 1
            kind = EventKind.FIRST_TOKEN if active.generated == 1 else EventKind.TOKEN
            self._emit(kind, request_id, {"token_id": token_ids[row], "text": texts[row]})
            if active.generated >= active.request.max_tokens:
                self._finish(request_id)
            else:
                survivors.append(request_id)
        self._decode_ready.extend(survivors)

    # -- persistence hooks -----------------------------------------------------

    def save_all(self) -> list[Event]:
        """Persist every Hot agent; returns every pending event."""
        with self._lock:
            for agent_id in self.pool.hot_agents():
                self.pool.save_agent(agent_id)
            return self.drain()

    def restore(self, agent_ids: list[str]) -> list[Event]:
        """Load the named agents from disk; returns every pending event.

        A failed load becomes a CacheLoaded event with ``ok: false``.
        """
        with self._lock:
            for agent_id in agent_ids:
                try:
                    self.pool.get_cache(agent_id)
                except AgentKVError as exc:
                    self._emit(
                        EventKind.CACHE_LOADED,
                        "",
                        {"agent_id": agent_id, "ok": False, "error": str(exc)},
                    )
            return self.drain()
