"""Capacity planner tests against the published tables."""

import pytest

from agentkv.capacity import (
    capacity_table,
    parse_budget,
    parse_contexts,
    render_json,
    render_table,
    render_tsv,
)
from agentkv.errors import InvalidArgumentError
from agentkv.model_spec import preset

BUDGET = 10.2 * 2**30


def fits(model, context):
    spec = preset(model)
    [row] = capacity_table(spec, BUDGET, [context])
    return row.fp16_agents_fit, row.q4_agents_fit


def test_gemma_8k_fits_3_fp16_12_q4():
    assert fits("gemma3-12b", 8192) == (3, 12)


def test_gemma_full_column():
    spec = preset("gemma3-12b")
    rows = capacity_table(spec, BUDGET, [4096, 8192, 16384, 32768])
    assert [(r.fp16_agents_fit, r.q4_agents_fit) for r in rows] == [
        (6, 24),
        (3, 12),
        (1, 6),
        (0, 3),
    ]
    assert rows[0].fp16_bytes_per_agent == 1536 * 2**20
    assert rows[0].q4_bytes_per_agent == 432 * 2**20


def test_llama_byte_figures():
    spec = preset("llama31-8b")
    [row] = capacity_table(spec, BUDGET, [4096])
    assert row.fp16_bytes_per_agent == 512 * 2**20
    assert row.q4_bytes_per_agent == 144 * 2**20


def test_ratio_exact_for_symmetric_dims():
    for model in ("gemma3-12b", "llama31-8b", "deepseek-v2-lite-16b"):
        spec = preset(model)
        for row in capacity_table(spec, BUDGET, [1024, 4096, 32768]):
            assert row.q4_bytes_per_agent / row.fp16_bytes_per_agent == (1 + 8 / 64) / 4


def test_zero_context_reports_unbounded():
    spec = preset("gemma3-12b")
    [row] = capacity_table(spec, BUDGET, [0])
    assert row.fp16_bytes_per_agent == 0
    assert row.fp16_agents_fit is None
    assert row.q4_agents_fit is None
    assert "∞" in render_table(spec, BUDGET, [row])
    assert "inf" in render_tsv([row])


def test_block_rounded_variant():
    spec = preset("gemma3-12b")
    [plain] = capacity_table(spec, BUDGET, [300])
    [rounded] = capacity_table(spec, BUDGET, [300], block_rounded=True)
    assert rounded.fp16_bytes_per_agent > plain.fp16_bytes_per_agent
    # 300 rounds up to 512 (two blocks of 256)
    [two_blocks] = capacity_table(spec, BUDGET, [512])
    assert rounded.fp16_bytes_per_agent == two_blocks.fp16_bytes_per_agent


def test_parse_budget():
    assert parse_budget("10.2GB") == round(10.2 * 2**30)  # whole bytes
    assert isinstance(parse_budget("10.2GB"), int)
    assert parse_budget("512MB") == 512 * 2**20
    assert parse_budget("1024") == 1024
    for text in ["lots", "infGB"]:
        with pytest.raises(InvalidArgumentError):
            parse_budget(text)


def test_parse_contexts():
    assert parse_contexts("4k,8k,16k,32k") == [4096, 8192, 16384, 32768]
    assert parse_contexts("300, 1k") == [300, 1024]
    for text in ["", "infk"]:
        with pytest.raises(InvalidArgumentError):
            parse_contexts(text)


def test_render_json_round_trips():
    import json

    spec = preset("llama31-8b")
    rows = capacity_table(spec, BUDGET, [4096])
    data = json.loads(render_json(spec, BUDGET, rows))
    assert data["rows"][0]["q4_agents_fit"] == rows[0].q4_agents_fit


def test_budget_must_be_positive():
    with pytest.raises(InvalidArgumentError):
        capacity_table(preset("llama31-8b"), 0, [4096])
