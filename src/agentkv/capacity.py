"""Closed-form capacity tables: how many agents fit in a byte budget.

All GB figures use binary units (1 GB = 2^30 bytes); the default budget
of 10.2 GB mirrors the evaluated device. Per-agent bytes come straight
from the codec formulas, without block-granularity rounding by default
(a block-rounded variant is available behind a flag).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .codec import fp16_bytes, q4_bytes
from .errors import InvalidArgumentError
from .model_spec import ModelCacheSpec

__all__ = [
    "CapacityRow",
    "capacity_table",
    "format_context",
    "parse_budget",
    "parse_contexts",
    "render_json",
    "render_table",
    "render_tsv",
]

GIB = 2**30
DEFAULT_CONTEXTS = (4096, 8192, 16384, 32768)


@dataclass(frozen=True)
class CapacityRow:
    context_tokens: int
    fp16_bytes_per_agent: int
    q4_bytes_per_agent: int
    fp16_agents_fit: int | None  # None means unbounded (zero-cost agent)
    q4_agents_fit: int | None


def _fits(budget_bytes: int, per_agent: int) -> int | None:
    if per_agent == 0:
        return None
    return math.floor(budget_bytes / per_agent)


def capacity_table(
    spec: ModelCacheSpec,
    budget_bytes: int,
    contexts: list[int] | tuple[int, ...] = DEFAULT_CONTEXTS,
    block_rounded: bool = False,
) -> list[CapacityRow]:
    """Per-context agent capacity under a byte budget."""
    if budget_bytes <= 0:
        raise InvalidArgumentError("budget must be positive")
    rows = []
    for context in contexts:
        if context < 0:
            raise InvalidArgumentError("context lengths must be non-negative")
        tokens = context
        if block_rounded and context % spec.block_tokens:
            tokens = (context // spec.block_tokens + 1) * spec.block_tokens
        fp = fp16_bytes(spec, tokens)
        q4 = q4_bytes(spec, tokens)
        rows.append(
            CapacityRow(
                context_tokens=context,
                fp16_bytes_per_agent=fp,
                q4_bytes_per_agent=q4,
                fp16_agents_fit=_fits(budget_bytes, fp),
                q4_agents_fit=_fits(budget_bytes, q4),
            )
        )
    return rows


def parse_budget(text: str) -> int:
    """Parse '10.2GB', '512MB', or a raw byte count (binary units), to whole bytes.

    Rounds to the nearest byte, so '10.2GB' is ``DEFAULT_BUDGET_BYTES``.
    """
    cleaned = text.strip().upper().replace(" ", "")
    units = {"GB": 2**30, "GIB": 2**30, "MB": 2**20, "MIB": 2**20, "KB": 2**10, "B": 1}
    suffix = next((unit for unit in units if cleaned.endswith(unit)), "")
    try:
        return round(float(cleaned[: len(cleaned) - len(suffix)]) * units.get(suffix, 1))
    except (ValueError, OverflowError):  # also 'nan' and 'inf'
        raise InvalidArgumentError(f"cannot parse budget {text!r}") from None


def parse_contexts(text: str) -> list[int]:
    """Parse '4k,8k,16k,32k' or '4096,8192' into token counts."""
    out = []
    for item in text.split(","):
        item = item.strip().lower()
        if not item:
            continue
        factor = 1
        if item.endswith("k"):
            factor = 1024
            item = item[:-1]
        try:
            out.append(int(float(item) * factor))
        except (ValueError, OverflowError):  # also 'nan' and 'inf'
            raise InvalidArgumentError(f"cannot parse context {item!r}") from None
    if not out:
        raise InvalidArgumentError("no context lengths given")
    return out


def format_context(tokens: int) -> str:
    if tokens and tokens % 1024 == 0:
        return f"{tokens // 1024}K"
    return str(tokens)


def _fit_str(fit: int | None) -> str:
    return "∞" if fit is None else str(fit)


def _gb(nbytes: int) -> str:
    return f"{nbytes / GIB:.2f}"


def render_table(spec: ModelCacheSpec, budget_bytes: int, rows: list[CapacityRow]) -> str:
    lines = [
        f"model: {spec.model_id}   budget: {budget_bytes / GIB:.2f} GB",
        f"{'Context':>8} {'FP16/agent GB':>14} {'Q4/agent GB':>12} {'FP16 fits':>10} {'Q4 fits':>8}",
    ]
    for row in rows:
        lines.append(
            f"{format_context(row.context_tokens):>8}"
            f" {_gb(row.fp16_bytes_per_agent):>14}"
            f" {_gb(row.q4_bytes_per_agent):>12}"
            f" {_fit_str(row.fp16_agents_fit):>10}"
            f" {_fit_str(row.q4_agents_fit):>8}"
        )
    return "\n".join(lines)


def render_tsv(rows: list[CapacityRow]) -> str:
    lines = ["context\tfp16_bytes\tq4_bytes\tfp16_fits\tq4_fits"]
    for row in rows:
        lines.append(
            f"{row.context_tokens}\t{row.fp16_bytes_per_agent}\t{row.q4_bytes_per_agent}"
            f"\t{'inf' if row.fp16_agents_fit is None else row.fp16_agents_fit}"
            f"\t{'inf' if row.q4_agents_fit is None else row.q4_agents_fit}"
        )
    return "\n".join(lines)


def render_json(spec: ModelCacheSpec, budget_bytes: int, rows: list[CapacityRow]) -> str:
    return json.dumps(
        {
            "model": spec.model_id,
            "budget_bytes": budget_bytes,
            "rows": [asdict(row) for row in rows],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
