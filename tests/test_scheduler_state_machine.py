"""Stateful property test: the scheduler's output does not depend on its budget.

One request stream drives three worlds: an unbounded reference, and two
worlds whose budgets hold fewer tokens than an agent soon does, with other
``chunk_tokens`` and ``max_batch``. Those two evict, save and reload on
almost every unit. The rules submit EXACT, EXTEND, partial-EXTEND and
DIVERGE prompts, step, run to idle, ``save_all``, ``restore``, drop idle
agents and restart on the same cache directory. At every idle point each
request's token stream and DONE accounting, and each agent's cache down to
its quantized bits, must match the reference; every request finishes
exactly once and no engine call overlaps another.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from agentkv.block_pool import BlockPool
from agentkv.blocks import CacheState
from agentkv.codec import q4_bytes
from agentkv.engine import SyntheticEngine
from agentkv.errors import InvalidArgumentError, NotFoundError
from agentkv.scheduler import EventKind, Request, Scheduler

from .helpers import tiny_spec

SPEC = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
AGENTS = ("a", "b")
ENGINE_SEED = 5
# (budget, chunk_tokens, max_batch); the first world is the reference
CONFIGS = (
    (1 << 40, 64, 4),
    (q4_bytes(SPEC, 24), 3, 1),
    (q4_bytes(SPEC, 40), 5, 2),
)

agents = st.sampled_from(AGENTS)
texts = st.text(alphabet="abcdefgh ", min_size=16, max_size=128)
max_tokens = st.integers(1, 4)


def differ(char: str) -> str:
    """A character that is not ``char`` and not in any prompt's alphabet."""
    return "#" if char != "#" else "%"


class World:
    """One scheduler, pool and engine over its own cache directory."""

    def __init__(self, root: Path, budget: int, chunk_tokens: int, max_batch: int) -> None:
        self.root = root
        self.config = (budget, chunk_tokens, max_batch)
        self.in_flight: dict[str, str] = {}  # request id -> agent
        self.streams: dict[str, list] = defaultdict(list)  # request id -> events
        self.start()

    def start(self) -> None:
        budget, chunk_tokens, max_batch = self.config
        self.pool = BlockPool(SPEC, self.root, budget)
        self.engine = SyntheticEngine(SPEC, seed=ENGINE_SEED)
        self.sched = Scheduler(self.pool, self.engine, chunk_tokens=chunk_tokens,
                               max_batch=max_batch)

    def take(self, events) -> list:
        for event in events:
            if not event.request_id:
                continue
            assert event.request_id in self.in_flight, f"event after done: {event}"
            self.streams[event.request_id].append((event.kind, event.payload))
            if event.kind is EventKind.DONE:
                del self.in_flight[event.request_id]
        return events

    def busy(self, agent: str) -> bool:
        return agent in self.in_flight.values()


def caches_equal(a, b) -> bool:
    if (a.token_ids, a.char_offsets, a.transcript_text) != (
        b.token_ids, b.char_offsets, b.transcript_text
    ):
        return False
    return all(
        len(la) == len(lb)
        and all(x.k.bitwise_equal(y.k) and x.v.bitwise_equal(y.v) for x, y in zip(la, lb))
        for la, lb in zip(a.blocks, b.blocks)
    )


class BudgetObliviousMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.worlds = [World(root / f"w{i}", *config) for i, config in enumerate(CONFIGS)]
        self.ref = self.worlds[0]
        self.counter = 0

    def teardown(self) -> None:
        self._tmp.cleanup()

    def _submit(self, agent, max_tokens, prompt_of, persistent=True) -> None:
        """Submit one request to every world; ``prompt_of`` maps the
        reference transcript (None for a Cold agent) to the prompt."""
        self.counter += 1
        rid = f"r{self.counter}"
        busy = [w for w in self.worlds if w.busy(agent)]
        if busy:  # refused where in flight; the stream goes on without it
            for world in busy:
                with pytest.raises(InvalidArgumentError):
                    world.sched.submit(Request(rid, agent, "x", 1))
            return
        pool = self.ref.pool
        transcript = (None if pool.agent_state(agent) is CacheState.COLD
                      else pool.get_cache(agent).transcript_text)
        request = Request(rid, agent, prompt_of(transcript), max_tokens,
                          persistent_cache_prefix=persistent)
        verdicts = []
        for world in self.worlds:
            result = world.sched.submit(request)
            world.in_flight[rid] = agent
            verdicts.append(None if result is None else result.to_json_dict())
        assert all(v == verdicts[0] for v in verdicts), verdicts

    # -- rules --------------------------------------------------------------------

    @rule(agent=agents, text=texts, max_tokens=max_tokens)
    def submit_exact(self, agent, text, max_tokens):
        self._submit(agent, max_tokens, lambda t: text if t is None else t)

    @rule(agent=agents, text=texts, max_tokens=max_tokens)
    def submit_extend(self, agent, text, max_tokens):
        self._submit(agent, max_tokens, lambda t: (t or "") + text)

    @rule(agent=agents, text=texts, cut=st.integers(0, 1 << 16), max_tokens=max_tokens)
    def submit_partial_extend(self, agent, text, cut, max_tokens):
        def prompt_of(t):
            if t is None or len(t) < 2:
                return (t or "") + text
            half = (len(t) + 1) // 2
            keep = half + cut % (len(t) - half)  # at least half is common
            return t[:keep] + differ(t[keep]) + text

        self._submit(agent, max_tokens, prompt_of)

    @rule(agent=agents, text=texts, max_tokens=max_tokens, persistent=st.booleans())
    def submit_diverge(self, agent, text, max_tokens, persistent):
        """Differ at the first character, or opt out of prefix reuse."""
        def prompt_of(t):
            if t is None or not persistent:
                return text
            return differ(t[0]) + text

        self._submit(agent, max_tokens, prompt_of, persistent)

    @rule(steps=st.integers(1, 4))
    def step(self, steps):
        for world in self.worlds:
            for _ in range(steps):
                world.take(world.sched.step())

    @rule()
    def run_to_idle(self):
        for world in self.worlds:
            world.take(world.sched.run_until_idle())
        self.check_idle()

    @rule()
    def save_all(self):
        for world in self.worlds:
            world.take(world.sched.save_all())

    @rule(names=st.lists(st.sampled_from(AGENTS + ("ghost",)), max_size=3))
    def restore(self, names):
        idle = {n for n in names if not any(w.busy(n) for w in self.worlds)}
        failed = []
        for world in self.worlds:
            events = world.take(world.sched.restore(names))
            failed.append(sorted(
                e.payload["agent_id"] for e in events
                if e.kind is EventKind.CACHE_LOADED and e.payload.get("ok") is False
                and e.payload["agent_id"] in idle
            ))
        assert all(f == failed[0] for f in failed), failed
        assert ("ghost" in names) == ("ghost" in failed[0])

    @rule(agent=agents, delete_disk=st.booleans())
    def drop(self, agent, delete_disk):
        busy = [w for w in self.worlds if w.busy(agent)]
        if busy:
            for world in busy:
                with pytest.raises(InvalidArgumentError):
                    world.sched.drop_agent(agent, delete_disk=delete_disk)
            return
        if not delete_disk:
            self.save_all()  # so the files that survive are the cache itself
        found = []
        for world in self.worlds:
            try:
                world.sched.drop_agent(agent, delete_disk=delete_disk)
                found.append(True)
            except NotFoundError:
                found.append(False)
        assert all(f == found[0] for f in found), found

    @rule()
    def restart(self):
        """A clean restart: finish, persist, and rebuild on the same directory."""
        for world in self.worlds:
            world.take(world.sched.run_until_idle())
            world.take(world.sched.save_all())
            assert world.engine.counters.reentrancy_violations == 0
            world.start()
        self.check_idle()

    # -- checks -------------------------------------------------------------------

    def check_idle(self) -> None:
        for world in self.worlds:
            assert world.in_flight == {}
            assert not world.sched.has_work()
        ref_streams = self.ref.streams
        for world in self.worlds[1:]:
            assert world.streams.keys() == ref_streams.keys()
            for rid, stream in ref_streams.items():
                assert world.streams[rid] == stream, (rid, world.config)
        for stream in ref_streams.values():
            kinds = [kind for kind, _ in stream]
            assert kinds.count(EventKind.DONE) == 1 and kinds[-1] is EventKind.DONE
            assert sum(k is not EventKind.DONE for k in kinds) == stream[-1][1]["generated"]
        for agent in AGENTS:
            cold = [w.pool.agent_state(agent) is CacheState.COLD for w in self.worlds]
            assert all(c == cold[0] for c in cold), (agent, cold)
            if not cold[0]:
                ref_cache = self.ref.pool.get_cache(agent)
                for world in self.worlds[1:]:
                    assert caches_equal(world.pool.get_cache(agent), ref_cache), agent

    @invariant()
    def no_engine_call_overlapped(self):
        for world in self.worlds:
            assert world.engine.counters.reentrancy_violations == 0


TestBudgetObliviousScheduler = BudgetObliviousMachine.TestCase
TestBudgetObliviousScheduler.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
