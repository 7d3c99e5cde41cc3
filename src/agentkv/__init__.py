"""Persistent 4-bit quantized KV-cache engine for multi-agent inference."""

from .batch import BatchCache, merge, update_and_fetch
from .block_pool import DEFAULT_BUDGET_BYTES, BlockPool, PoolStats
from .blocks import AgentCache, CacheState, KVBlock
from .capacity import CapacityRow, capacity_table
from .codec import (
    QuantizedTensor,
    dequantize_tensor,
    fp16_bytes,
    q4_bytes,
    quantize_tensor,
)
from .engine import Engine, EngineCounters, SyntheticEngine
from .model_spec import (
    GLOBAL,
    AttentionKind,
    ModelCacheSpec,
    PRESET_NAMES,
    preset,
    sliding_window,
    spec_fingerprint,
)
from .persistence import CacheFilePair, inspect_tensor_file, load_agent, save_agent
from .prefix import MatchResult, Verdict, common_prefix_chars, match
from .scheduler import Event, EventKind, Request, Scheduler

__all__ = [
    "AgentCache",
    "AttentionKind",
    "BatchCache",
    "BlockPool",
    "CacheFilePair",
    "CacheState",
    "CapacityRow",
    "DEFAULT_BUDGET_BYTES",
    "Engine",
    "EngineCounters",
    "Event",
    "EventKind",
    "GLOBAL",
    "KVBlock",
    "MatchResult",
    "ModelCacheSpec",
    "PRESET_NAMES",
    "PoolStats",
    "QuantizedTensor",
    "Request",
    "Scheduler",
    "SyntheticEngine",
    "Verdict",
    "capacity_table",
    "common_prefix_chars",
    "dequantize_tensor",
    "fp16_bytes",
    "inspect_tensor_file",
    "load_agent",
    "match",
    "merge",
    "preset",
    "q4_bytes",
    "quantize_tensor",
    "save_agent",
    "sliding_window",
    "spec_fingerprint",
    "update_and_fetch",
]

__version__ = "0.1.0"
