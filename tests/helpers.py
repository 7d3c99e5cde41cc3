"""Shared test fixtures: small specs, synthetic KV chunks, cache checksums, event lines."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from agentkv.blocks import AgentCache
from agentkv.model_spec import GLOBAL, ModelCacheSpec
from agentkv.scheduler import Event


def tiny_spec(
    layers=2,
    heads=2,
    k_dim=16,
    v_dim=16,
    block=8,
    group=8,
    query_heads=None,
    kinds=None,
) -> ModelCacheSpec:
    return ModelCacheSpec(
        model_id=f"tiny-{layers}x{heads}x{k_dim}x{v_dim}b{block}g{group}",
        num_layers=layers,
        num_kv_heads=heads,
        num_query_heads=query_heads or heads,
        k_head_dim=k_dim,
        v_head_dim=v_dim,
        layer_kinds=tuple(kinds) if kinds else tuple(GLOBAL for _ in range(layers)),
        block_tokens=block,
        group_size=group,
    )


def random_kv_chunk(spec: ModelCacheSpec, t_new: int, rng: np.random.Generator):
    """One (K, V) pair of float32 arrays shaped (layers, heads, t_new, dim).

    Draws layer by layer, K before V, so a seed gives the values it gave
    when chunks were lists of per-layer pairs.
    """
    k = np.empty((spec.num_layers, spec.num_kv_heads, t_new, spec.k_head_dim), np.float32)
    v = np.empty((spec.num_layers, spec.num_kv_heads, t_new, spec.v_head_dim), np.float32)
    for layer in range(spec.num_layers):
        k[layer] = rng.uniform(-1, 1, size=k.shape[1:])
        v[layer] = rng.uniform(-1, 1, size=v.shape[1:])
    return k, v


def append_random(pool, agent_id: str, t_new: int, rng: np.random.Generator, text=None):
    """Append t_new synthetic tokens to an agent; returns the new total."""
    kv = random_kv_chunk(pool.spec, t_new, rng)
    ids = [int(rng.integers(0, 50_000)) for _ in range(t_new)]
    body = text if text is not None else "x" * (2 * t_new)
    per_tok = len(body) // max(t_new, 1)
    offsets = [i * per_tok for i in range(t_new)]
    return pool.append_tokens(agent_id, kv, ids, body, offsets)


def cache_checksum(cache: AgentCache) -> str:
    """Digest over every byte of an agent's blocks plus its metadata."""
    h = hashlib.sha256()
    h.update(cache.transcript_text.encode("utf-8"))
    h.update(repr(cache.token_ids).encode())
    h.update(repr(cache.char_offsets).encode())
    for layer in cache.blocks:
        for block in layer:
            for qt in (block.k, block.v):
                h.update(np.ascontiguousarray(qt.packed).tobytes())
                h.update(np.ascontiguousarray(qt.scales).tobytes())
                h.update(np.ascontiguousarray(qt.biases).tobytes())
    return h.hexdigest()


def event_line(event: Event) -> str:
    """Canonical JSON of one scheduler event, for trace-equality checks."""
    return json.dumps(event.to_json_dict(), sort_keys=True, separators=(",", ":"))
