"""Unit tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from stats import covered, failed_share, reuse_share, self_time, tail  # noqa: E402
from workloads import reference_token  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    t = tail(values)
    assert t["value"] == 90
    assert sum(v > t["value"] for v in values) == 10
    assert t["percentile"] == 90.0
    assert t["n"] == 100 and t["enough"]


def test_tail_percentile_follows_sample_count():
    values = [float(v) for v in range(25)]
    t = tail(values)
    assert sum(v > t["value"] for v in values) == 10
    assert t["percentile"] == 60.0
    # the order of the input does not matter
    assert tail(list(reversed(values)))["value"] == t["value"]


def test_tail_with_too_few_samples_reports_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert t["value"] == 3.0
    assert not t["enough"] and t["beyond"] == 0
    assert tail([])["value"] == 0.0


def test_tail_with_ties_still_counts_ranks():
    values = [5.0] * 30
    t = tail(values)
    assert t["value"] == 5.0 and t["beyond"] == 10


def test_self_time_without_children_is_the_duration():
    assert self_time(100, 200, []) == 100


def test_self_time_subtracts_overlapping_children_once():
    # children [110, 150) and [140, 170) overlap on [140, 150)
    assert self_time(100, 200, [(110, 150), (140, 170)]) == 100 - 60


def test_self_time_clips_children_to_the_parent():
    # a child that started before and one that ends after the parent
    assert self_time(100, 200, [(50, 120), (190, 260)]) == 100 - 30


def test_self_time_nested_and_disjoint_children():
    children = [(110, 120), (130, 190), (140, 150), (195, 200)]
    assert covered(children, 100, 200) == 10 + 60 + 5
    assert self_time(100, 200, children) == 25


def test_reuse_share_sums_tokens_not_ratios():
    # (reused, prompt): 900/1000 and 0/100 give 900/1100, not the mean 0.45
    assert reuse_share([(900, 1000), (0, 100)]) == pytest.approx(900 / 1100)
    assert reuse_share([(0, 448), (0, 512)]) == 0.0
    assert reuse_share([(1536, 1536)]) == 1.0
    assert reuse_share([]) == 0.0


def test_failed_share():
    assert failed_share(0, 40) == 0.0
    assert failed_share(1, 4) == 0.25
    assert failed_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_share(5, 4)


def test_reference_token_matches_the_synthetic_engine():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    engine_mod = pytest.importorskip("agentkv.engine")
    spec_mod = pytest.importorskip("agentkv.model_spec")
    engine = engine_mod.SyntheticEngine(spec_mod.preset("llama31-8b"), seed=0)
    for agent, position in [("dl-s1-c0-a0", 0), ("me-s7-c1-a2", 1535), ("x", 70000)]:
        assert reference_token(agent, position) == engine._next_token(agent, position)
