"""Stateful property test: the block pool against a plain dict model.

The agent ids share dotted prefixes, so a save, sweep or delete of one id
must leave the files of the others alone. The budget holds 40 tokens, so
appends, reloads and truncations evict on their own, and an agent can
outgrow the whole budget.
"""

from __future__ import annotations

import tempfile
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from agentkv.block_pool import BlockPool
from agentkv.blocks import AgentCache, CacheState
from agentkv.codec import concat_tokens, q4_bytes, quantize_tensor
from agentkv.errors import InvalidValueError, NotFoundError
from agentkv.persistence import discover_pair, load_agent

from .helpers import random_kv_chunk, tiny_spec

IDS = ("a", "a.b", "a.b.c", "ab", "a-b")
SPEC = tiny_spec(layers=2, heads=2, k_dim=16, v_dim=16, block=8, group=8)
BUDGET = q4_bytes(SPEC, 40)

agent_ids = st.sampled_from(IDS)
seeds = st.integers(0, 2**32 - 1)


class Content(NamedTuple):
    """What an agent's cache should hold: its tokens and its float (K, V).

    K and V are each shaped (layers, heads, tokens, dim).
    """

    token_ids: tuple[int, ...]
    text: str
    offsets: tuple[int, ...]
    kv: tuple[np.ndarray, np.ndarray]

    def extend(self, chunk: Content) -> Content:
        return Content(
            self.token_ids + chunk.token_ids,
            self.text + chunk.text,
            self.offsets + tuple(len(self.text) + o for o in chunk.offsets),
            tuple(np.concatenate(pair, axis=2) for pair in zip(self.kv, chunk.kv)),
        )

    def truncate(self, keep: int) -> Content:
        if keep == len(self.token_ids):
            return self
        return Content(
            self.token_ids[:keep],
            self.text[: self.offsets[keep]] if keep else "",
            self.offsets[:keep],
            tuple(side[:, :, :keep] for side in self.kv),
        )


EMPTY = Content((), "", (), random_kv_chunk(SPEC, 0, np.random.default_rng(0)))


def make_chunk(tokens: int, seed: int) -> Content:
    rng = np.random.default_rng(seed)
    kv = random_kv_chunk(SPEC, tokens, rng)
    widths = rng.integers(1, 4, size=tokens)
    text = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=int(widths.sum())))
    offsets = tuple(int(o) for o in np.cumsum(widths) - widths)
    ids = tuple(int(i) for i in rng.integers(0, 50_000, size=tokens))
    return Content(ids, text, offsets, kv)


def assert_holds(cache: AgentCache, content: Content) -> None:
    cache.validate(SPEC.num_layers, SPEC.block_tokens)
    assert cache.token_ids == list(content.token_ids)
    assert cache.char_offsets == list(content.offsets)
    assert cache.transcript_text == content.text
    for blocks, k, v in zip(cache.blocks, *content.kv):
        if not blocks:
            assert not content.token_ids
            continue
        for side, values in (("k", k), ("v", v)):
            held = reduce(concat_tokens, [getattr(b, side) for b in blocks])
            assert held.bitwise_equal(quantize_tensor(values, SPEC))


class PoolMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.pool = BlockPool(SPEC, self.root, BUDGET)
        self.hot: dict[str, Content] = {}  # least recently used first
        self.warm: set[str] = set()
        self.disk: dict[str, Content] = {}  # each agent's last save

    def teardown(self) -> None:
        self._tmp.cleanup()

    # -- the model's pool -------------------------------------------------------

    def _known(self, agent: str) -> bool:
        return agent in self.hot or agent in self.disk

    def _touch(self, agent: str, content: Content) -> None:
        self.hot.pop(agent, None)
        self.hot[agent] = content

    def _resident(self, agent: str) -> Content:
        if agent not in self.hot:
            self.warm.discard(agent)
            self._touch(agent, self.disk[agent])
        return self.hot[agent]

    def _evict(self) -> str:
        agent = next(iter(self.hot))
        self.disk[agent] = self.hot.pop(agent)
        self.warm.add(agent)
        return agent

    def _resident_bytes(self) -> int:
        return sum(q4_bytes(SPEC, len(c.token_ids)) for c in self.hot.values())

    def _evict_to_budget(self) -> None:
        while self.hot and self._resident_bytes() > BUDGET:
            self._evict()

    # -- rules --------------------------------------------------------------------

    @rule(agent=agent_ids, tokens=st.integers(1, 12), seed=seeds)
    def append(self, agent, tokens, seed):
        chunk = make_chunk(tokens, seed)
        total = self.pool.append_tokens(
            agent, chunk.kv, list(chunk.token_ids), chunk.text, list(chunk.offsets)
        )
        base = self._resident(agent) if self._known(agent) else EMPTY
        self._touch(agent, base.extend(chunk))
        self._evict_to_budget()
        assert total == len(base.token_ids) + tokens

    @rule(agent=agent_ids, seed=seeds)
    def append_non_finite(self, agent, seed):
        chunk = make_chunk(3, seed)
        chunk.kv[0][-1, 0, 1, 2] = np.nan  # last layer's K
        with pytest.raises(InvalidValueError):
            self.pool.append_tokens(
                agent, chunk.kv, list(chunk.token_ids), chunk.text, list(chunk.offsets)
            )
        # contents stay; a Warm agent is reloaded first, as by get_cache
        if self._known(agent):
            self._resident(agent)
            self._evict_to_budget()

    @rule(agent=agent_ids)
    def get_cache(self, agent):
        if not self._known(agent):
            with pytest.raises(NotFoundError):
                self.pool.get_cache(agent)
            return
        cache = self.pool.get_cache(agent)
        content = self._resident(agent)
        self._evict_to_budget()
        assert_holds(cache, content)

    @rule()
    def evict_lru(self):
        expected = self._evict() if self.hot else None
        assert self.pool.evict_lru() == expected

    @rule(agent=agent_ids)
    def save_agent(self, agent):
        if agent not in self.hot:
            with pytest.raises(NotFoundError):
                self.pool.save_agent(agent)
            return
        self.pool.save_agent(agent)
        self.disk[agent] = self.hot[agent]

    @rule(agent=agent_ids, delete_disk=st.booleans())
    def drop_agent(self, agent, delete_disk):
        if not self._known(agent):
            with pytest.raises(NotFoundError):
                self.pool.drop_agent(agent, delete_disk=delete_disk)
            return
        self.pool.drop_agent(agent, delete_disk=delete_disk)
        self.hot.pop(agent, None)
        self.warm.discard(agent)
        if delete_disk:
            self.disk.pop(agent, None)

    @rule(agent=agent_ids, blocks=st.integers(0, 6))
    def truncate_agent(self, agent, blocks):
        if not self._known(agent):
            with pytest.raises(NotFoundError):
                self.pool.truncate_agent(agent, 0)
            return
        content = self._resident(agent)
        keep = min(blocks, len(content.token_ids) // SPEC.block_tokens) * SPEC.block_tokens
        self.pool.truncate_agent(agent, keep)
        self._touch(agent, content.truncate(keep))
        self._evict_to_budget()

    @rule()
    def restart(self):
        self.pool = BlockPool(SPEC, self.root, BUDGET)
        self.hot = {}
        self.warm = set()

    # -- checks -------------------------------------------------------------------

    @invariant()
    def pool_matches_model(self):
        stats = self.pool.stats()
        assert stats.resident_bytes == self._resident_bytes() <= BUDGET
        assert (stats.agents_hot, stats.agents_warm) == (len(self.hot), len(self.warm))
        assert self.pool.hot_agents() == sorted(self.hot)
        assert self.pool.known_agents() == sorted(self.hot.keys() | self.warm)
        for agent in IDS:
            if agent in self.hot:
                expected = CacheState.HOT
            elif agent in self.disk:
                expected = CacheState.WARM
            else:
                expected = CacheState.COLD
            assert self.pool.agent_state(agent) is expected
        # touching every hot agent in recency order leaves that order as it is
        held = 0
        for agent, content in list(self.hot.items()):
            cache = self.pool.get_cache(agent)
            assert_holds(cache, content)
            held += cache.nbytes
        assert held == stats.resident_bytes
        # the directory holds exactly each agent's last save
        names = set()
        for agent, content in self.disk.items():
            pair = discover_pair(self.root, agent)
            names |= {pair.sidecar_path.name, pair.tensor_path.name}
            assert_holds(load_agent(pair, self.pool.fingerprint), content)
        assert {p.name for p in self.root.iterdir()} == names


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
