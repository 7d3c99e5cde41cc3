"""Pure arithmetic shared by the load generator and the span analysis.

Nothing here touches the program under test, so these helpers are unit
tested on their own (see tests/test_helpers.py).
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

# A tail is only reported where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample (a layer that did no work)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> dict:
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    With n sorted samples, the value at 0-based rank n - 11 has exactly ten
    samples above it, so it is that percentile: 100 * (n - 10) / n. With ten
    samples or fewer no value qualifies; the maximum is reported and the
    entry says so.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return {
            "value": float(ordered[-1]) if ordered else 0.0,
            "percentile": 100.0,
            "n": n,
            "beyond": 0,
            "enough": False,
        }
    return {
        "value": float(ordered[n - TAIL_BEYOND - 1]),
        "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 3),
        "n": n,
        "beyond": TAIL_BEYOND,
        "enough": True,
    }


def share(part: float, whole: float) -> float:
    """part / whole, 0.0 when whole is 0."""
    return part / whole if whole else 0.0


def reuse_share(records: Iterable[tuple[int, int]]) -> float:
    """Reused prompt tokens over prompt tokens; records are (reused, prompt)."""
    reused = 0
    prompt = 0
    for r, p in records:
        reused += r
        prompt += p
    return share(reused, prompt)


def failed_share(failed: int, attempted: int) -> float:
    """Failed or refused requests over attempted requests."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: failed={failed} attempted={attempted}")
    return share(failed, attempted)


def covered(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's duration minus the part of it that child spans cover.

    Children may overlap each other (for instance spans recorded on two
    threads under one parent); the overlap is counted once.
    """
    return (end - start) - covered(children, start, end)
