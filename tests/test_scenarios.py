"""Scenario report tests: structural checks, determinism, rendering."""

import hashlib
import json

import pytest

from agentkv.errors import InvalidArgumentError
from agentkv.scenarios import render_report, reuse_bar_svg, run_scenario


def test_phase5_structural_checks(tmp_path):
    report = run_scenario("phase5", tmp_path / "w", seed=0)
    assert all(report["checks"].values()), report["checks"]
    phases = report["phases"]
    assert len(phases) == 5
    # phase 1 cold == persistent (both start cold)
    assert phases[0]["cold"]["prefill_tokens"] == phases[0]["persistent"]["prefill_tokens"]
    # later phases: persistent prefill strictly below cold
    for ph in phases[1:]:
        assert ph["persistent"]["prefill_tokens"] < ph["cold"]["prefill_tokens"]
        assert ph["prefill_delta"] == ph["persistent"]["reused_tokens"]
    # cold mode never reuses
    assert all(
        ph["cold"]["verdicts"]["extend"] == 0 and ph["cold"]["verdicts"]["exact"] == 0
        for ph in phases
    )


def test_routing10_checks(tmp_path):
    report = run_scenario("routing10", tmp_path / "w", seed=0)
    assert all(report["checks"].values()), report["checks"]
    prime, *queries = report["phases"]
    assert len(prime["participants"]) == 10
    for ph in queries:
        extended = ph["persistent"]["verdicts"]["extend"] + ph["persistent"]["verdicts"]["exact"]
        assert extended == len(ph["participants"])
        # suffix-only prefill: far less than the cold full re-prefill
        assert ph["persistent"]["prefill_tokens"] < ph["cold"]["prefill_tokens"] / 2


def test_routing10_under_eviction_pressure_is_pinned(tmp_path):
    # a 400 KiB budget keeps about 3 of the 10 agents resident, so every
    # eviction and reload decision shows in the report's traces
    report = run_scenario("routing10", tmp_path / "w", seed=0, budget_bytes=400 * 1024)
    persistent = [e["kind"] for e in report["traces"]["persistent"]]
    assert persistent.count("evicted") == 141
    assert persistent.count("cache_loaded") == 133
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "1e5c3cdc013d84109d654fe915fd318e49d7fb85dd87e03f25ec2a561559844f"


def test_staggered_checks(tmp_path):
    report = run_scenario("staggered", tmp_path / "w", seed=0)
    assert all(report["checks"].values()), report["checks"]
    assert report["batched"]["chunk_switches"] > report["sequential"]["chunk_switches"]
    # traces carry the streaming events
    kinds = {e["kind"] for e in report["traces"]["batched"]}
    assert "first_token" in kinds and "done" in kinds


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError):
        run_scenario("nope", tmp_path)


def test_reports_deterministic_across_runs(tmp_path):
    a = run_scenario("phase5", tmp_path / "a", seed=3)
    b = run_scenario("phase5", tmp_path / "b", seed=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_scenario("phase5", tmp_path / "c", seed=4)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_svg_chart_is_deterministic_and_wellformed(tmp_path):
    report = run_scenario("phase5", tmp_path / "w", seed=0)
    svg1 = reuse_bar_svg(report)
    svg2 = reuse_bar_svg(report)
    assert svg1 == svg2
    assert svg1.startswith("<svg") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<rect") == 5


def test_render_report_mentions_each_phase(tmp_path):
    report = run_scenario("phase5", tmp_path / "w", seed=0)
    text = render_report(report)
    for ph in report["phases"]:
        assert ph["label"] in text
