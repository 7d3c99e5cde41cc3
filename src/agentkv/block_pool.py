"""Per-agent isolated block storage with a byte budget and LRU paging.

The pool owns every resident agent cache. Appends quantize incoming
float32 K/V tensors and pack them into fixed-size blocks; when resident
bytes exceed the budget, least-recently-used agents are persisted to disk
and dropped from memory (Hot -> Warm); an evicted agent leaves only its
id behind. Reads transparently reload Warm agents.

A pool has one owner: a single thread calls every method, so the pool
takes no lock. In the daemon that thread is the lane that also runs the
scheduler and the engine; eviction saves and reloads run on it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import persistence
from .blocks import AgentCache, CacheState, KVBlock, check_kv
from .codec import concat_tokens, quantize_tensor, slice_tokens
from .errors import (
    EvictionFailedError,
    InvalidArgumentError,
    NotFoundError,
    PersistenceError,
    ShapeError,
)
from .model_spec import ModelCacheSpec, spec_fingerprint

__all__ = ["BlockPool", "PoolStats", "DEFAULT_BUDGET_BYTES"]

# mirrors the evaluated device's cache budget: 10.2 binary GB
DEFAULT_BUDGET_BYTES = round(10.2 * 2**30)

_EVENT_SAVED = "saved"
_EVENT_LOADED = "loaded"
_EVENT_EVICTED = "evicted"


@dataclass(frozen=True)
class PoolStats:
    resident_bytes: int
    budget_bytes: int
    agents_hot: int
    agents_warm: int
    evictions: int
    reloads: int


def _valid_agent_id(agent_id: str) -> bool:
    return bool(agent_id) and all(c.isalnum() or c in "._-" for c in agent_id)


class BlockPool:
    """Registry of per-agent quantized caches under one byte budget."""

    def __init__(
        self,
        spec: ModelCacheSpec,
        cache_dir: Path | str,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ) -> None:
        if budget_bytes <= 0:
            raise InvalidArgumentError("budget_bytes must be positive")
        self.spec = spec
        self.fingerprint = spec_fingerprint(spec)
        self.cache_dir = Path(cache_dir)
        self.budget_bytes = budget_bytes
        # resident caches, least recently used first
        self._hot: dict[str, AgentCache] = {}
        # ids this pool evicted and has not reloaded or dropped since
        self._warm: set[str] = set()
        self._resident_bytes = 0
        self._evictions = 0
        self._reloads = 0
        self._on_event: Callable[[str, str, int], None] | None = None

    def set_event_sink(self, on_event: Callable[[str, str, int], None] | None) -> None:
        """Wire an observer for saved/loaded/evicted notifications."""
        self._on_event = on_event

    # -- internals ---------------------------------------------------------

    def _touch(self, cache: AgentCache) -> None:
        """Make ``cache`` the most recently used: move it to the end of _hot."""
        self._hot.pop(cache.agent_id, None)
        self._hot[cache.agent_id] = cache

    def _emit(self, kind: str, agent_id: str, nbytes: int) -> None:
        if self._on_event is not None:
            self._on_event(kind, agent_id, nbytes)

    def _on_disk(self, agent_id: str) -> bool:
        """Whether the agent's sidecar exists (it is not parsed)."""
        return _valid_agent_id(agent_id) and (
            persistence.sidecar_path_for(self.cache_dir, agent_id).exists()
        )

    def _ensure_resident(self, agent_id: str) -> AgentCache:
        """The agent's resident cache, loaded from disk when needed.

        A load may leave the pool over budget: the calling operation evicts
        once it is done with the cache, so the cache is never its own victim.
        """
        cache = self._hot.get(agent_id)
        if cache is not None:
            return cache
        self._warm.discard(agent_id)
        # an invalid id names no file: "../x" must not reach outside cache_dir
        pair = (persistence.discover_pair(self.cache_dir, agent_id)
                if _valid_agent_id(agent_id) else None)
        if pair is None:
            raise NotFoundError(f"unknown agent {agent_id!r}")
        loaded = persistence.load_agent(pair, self.fingerprint)
        self._resident_bytes += loaded.nbytes
        self._reloads += 1
        self._emit(_EVENT_LOADED, agent_id, loaded.nbytes)
        self._touch(loaded)
        return loaded

    def _evict_to_budget(self) -> None:
        while self._resident_bytes > self.budget_bytes and self._hot:
            try:
                self.evict_lru()
            except EvictionFailedError:
                break  # stays over budget; visible in stats

    def _save(self, cache: AgentCache) -> persistence.CacheFilePair:
        try:
            return persistence.save_agent(cache, self.cache_dir, self.spec)
        except PersistenceError:
            raise
        except OSError as exc:
            raise PersistenceError(str(exc)) from exc

    # -- public operations --------------------------------------------------

    def append_tokens(
        self,
        agent_id: str,
        kv: tuple[np.ndarray, np.ndarray],
        new_token_ids: list[int],
        new_text: str,
        new_char_offsets: list[int] | None = None,
    ) -> int:
        """Quantize and append one chunk of K/V to an agent's blocks.

        ``kv`` is one (K, V) pair of float32 arrays shaped
        (layers, kv_heads, t_new, k_head_dim) and
        (layers, kv_heads, t_new, v_head_dim); any other argument raises
        ShapeError. ``new_char_offsets`` are per-token offsets into
        ``new_text`` (defaults to all tokens starting at offset 0). Returns
        the agent's total token count. Creates the agent when unknown; runs
        LRU eviction before returning if the pool went over budget. A chunk
        that fails to quantize leaves the agent's cache unchanged and
        registers no new agent (a Warm agent is still reloaded, as by
        ``get_cache``).
        """
        spec = self.spec
        t_new = len(new_token_ids)
        if new_char_offsets is None:
            new_char_offsets = [0] * t_new
        if len(new_char_offsets) != t_new:
            raise ShapeError("new_char_offsets length must match new_token_ids")
        k, v = check_kv(kv, (spec.num_layers, spec.num_kv_heads, t_new), spec)

        if not _valid_agent_id(agent_id):
            raise InvalidArgumentError(
                f"agent id {agent_id!r} must be non-empty and use only [A-Za-z0-9._-]"
            )
        try:
            cache = self._ensure_resident(agent_id)
        except NotFoundError:  # registered only once the chunk is in
            cache = AgentCache(
                agent_id=agent_id,
                spec_fingerprint=self.fingerprint,
                blocks=[[] for _ in range(spec.num_layers)],
            )
        try:
            if t_new:
                self._resident_bytes += self._append_chunk(cache, k, v)
                base_offset = cache.transcript_chars
                cache.token_ids.extend(int(t) for t in new_token_ids)
                cache.char_offsets.extend(base_offset + int(o) for o in new_char_offsets)
                cache.append_text(new_text)
            self._touch(cache)
        finally:
            self._evict_to_budget()  # a reload may have gone over budget
        return cache.token_count

    def _append_chunk(self, cache: AgentCache, k: np.ndarray, v: np.ndarray) -> int:
        """Quantize and append every layer, or none. Returns bytes added.

        Quantizing one layer at a time bounds the transient memory to one
        layer's quantized chunk (for 512 llama31-8b tokens, 14 MiB against
        158 MiB for one call over K's layers). A layer that fails to quantize
        (non-finite values) restores each layer's block count and tail block.
        """
        tails = [(len(b), b[-1].k, b[-1].v) if b else (0, None, None) for b in cache.blocks]
        added = 0
        try:
            for layer in range(len(cache.blocks)):
                qk = quantize_tensor(k[layer], self.spec)
                qv = quantize_tensor(v[layer], self.spec)
                added += self._append_layer(cache, layer, qk, qv)
        except BaseException:
            for layer_blocks, (count, tail_k, tail_v) in zip(cache.blocks, tails):
                del layer_blocks[count:]
                if count:
                    layer_blocks[-1].k, layer_blocks[-1].v = tail_k, tail_v
            raise
        return added

    def _append_layer(self, cache: AgentCache, layer: int, qk, qv) -> int:
        """Fill the layer's tail block, then open new blocks. Returns bytes added."""
        block_tokens = self.spec.block_tokens
        layer_blocks = cache.blocks[layer]
        added = 0
        consumed = 0
        total = qk.tokens
        if layer_blocks and layer_blocks[-1].token_count < block_tokens:
            tail = layer_blocks[-1]
            take = min(block_tokens - tail.token_count, total)
            added -= tail.nbytes
            tail.k = concat_tokens(tail.k, slice_tokens(qk, 0, take))
            tail.v = concat_tokens(tail.v, slice_tokens(qv, 0, take))
            added += tail.nbytes
            consumed = take
        while consumed < total:
            take = min(block_tokens, total - consumed)
            block = KVBlock(
                k=slice_tokens(qk, consumed, consumed + take),
                v=slice_tokens(qv, consumed, consumed + take),
            )
            layer_blocks.append(block)
            added += block.nbytes
            consumed += take
        return added

    def get_cache(self, agent_id: str) -> AgentCache:
        """Return an agent's cache, reloading it from disk when Warm.

        The returned object is the pool's live record: treat it as a
        read-only view and mutate only through pool operations.
        """
        cache = self._ensure_resident(agent_id)
        self._touch(cache)
        self._evict_to_budget()
        return cache

    def evict_lru(self) -> str | None:
        """Persist and drop the least-recently-used Hot agent."""
        if not self._hot:
            return None
        victim = next(iter(self._hot.values()))
        try:
            self._save(victim)
        except PersistenceError as exc:
            raise EvictionFailedError(
                f"could not persist {victim.agent_id!r}: {exc}"
            ) from exc
        freed = victim.nbytes
        self._emit(_EVENT_SAVED, victim.agent_id, freed)
        del self._hot[victim.agent_id]
        self._warm.add(victim.agent_id)
        self._resident_bytes -= freed
        self._evictions += 1
        self._emit(_EVENT_EVICTED, victim.agent_id, freed)
        return victim.agent_id

    def save_agent(self, agent_id: str) -> persistence.CacheFilePair:
        """Persist a Hot agent without evicting it."""
        cache = self._hot.get(agent_id)
        if cache is None:
            raise NotFoundError(f"agent {agent_id!r} is not resident")
        pair = self._save(cache)
        self._emit(_EVENT_SAVED, agent_id, cache.nbytes)
        return pair

    def drop_agent(self, agent_id: str, delete_disk: bool = False) -> None:
        """Free an agent's resident blocks and registry entry.

        Without ``delete_disk`` the persisted files survive, so a later
        ``get_cache`` reloads the agent from disk (Cold -> Hot).
        """
        cache = self._hot.pop(agent_id, None)
        if cache is None and agent_id not in self._warm and not self._on_disk(agent_id):
            raise NotFoundError(f"unknown agent {agent_id!r}")
        if cache is not None:
            self._resident_bytes -= cache.nbytes
        self._warm.discard(agent_id)
        if delete_disk:
            persistence.remove_agent_files(self.cache_dir, agent_id)

    def truncate_agent(self, agent_id: str, keep_tokens: int) -> None:
        """Drop cache content beyond ``keep_tokens`` (a whole-block multiple)."""
        if keep_tokens % self.spec.block_tokens != 0:
            raise InvalidArgumentError(
                f"keep_tokens ({keep_tokens}) must be a multiple of "
                f"block_tokens ({self.spec.block_tokens})"
            )
        cache = self._ensure_resident(agent_id)
        try:
            if keep_tokens > cache.token_count:
                raise InvalidArgumentError("cannot truncate beyond the cached token count")
            if keep_tokens < cache.token_count:
                keep_blocks = keep_tokens // self.spec.block_tokens
                for layer_blocks in cache.blocks:
                    for block in layer_blocks[keep_blocks:]:
                        self._resident_bytes -= block.nbytes
                    del layer_blocks[keep_blocks:]
                cut = cache.char_offsets[keep_tokens] if keep_tokens else 0
                del cache.token_ids[keep_tokens:]
                del cache.char_offsets[keep_tokens:]
                cache.transcript_text = cache.transcript_text[:cut]
            self._touch(cache)
        finally:
            self._evict_to_budget()

    def stats(self) -> PoolStats:
        return PoolStats(
            resident_bytes=self._resident_bytes,
            budget_bytes=self.budget_bytes,
            agents_hot=len(self._hot),
            agents_warm=len(self._warm),
            evictions=self._evictions,
            reloads=self._reloads,
        )

    def agent_state(self, agent_id: str) -> CacheState:
        """Lifecycle state; does not count as a use for LRU eviction."""
        if agent_id in self._hot:
            return CacheState.HOT
        if agent_id in self._warm or self._on_disk(agent_id):
            return CacheState.WARM
        return CacheState.COLD

    def known_agents(self) -> list[str]:
        """Ids that are resident or that this pool evicted."""
        return sorted(self._hot.keys() | self._warm)

    def hot_agents(self) -> list[str]:
        return sorted(self._hot)
