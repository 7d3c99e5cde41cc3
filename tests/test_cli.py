"""CLI tests: exit codes, output shapes, end-to-end client/server."""

import json
import signal
import subprocess
import sys

import numpy as np
import pytest

from agentkv import cli as cli_module
from agentkv.cli import main
from agentkv.block_pool import DEFAULT_BUDGET_BYTES, BlockPool
from agentkv.daemon import DaemonConfig
from agentkv.persistence import save_agent

from .helpers import append_random, tiny_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_table_contains_published_row(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--model", "gemma3-12b")
    assert code == 0
    row_8k = next(line for line in out.splitlines() if line.strip().startswith("8K"))
    cells = row_8k.split()
    assert cells[-2:] == ["3", "12"]


def test_capacity_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--model", "llama31-8b", "--format", "json",
        "--contexts", "4k",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["q4_agents_fit"] == 72


def test_inspect_missing_file_nonzero_exit(capsys):
    code, out, err = run_cli(capsys, "inspect", "missing.safetensors")
    assert code != 0
    assert "CorruptFile" in err


def test_inspect_real_file(capsys, tmp_path):
    spec = tiny_spec(layers=2, block=8)
    pool = BlockPool(spec, tmp_path / "pool", budget_bytes=1 << 30)
    append_random(pool, "a", 10, np.random.default_rng(0))
    pair = save_agent(pool.get_cache("a"), tmp_path / "store", spec)
    code, out, _ = run_cli(capsys, "inspect", str(pair.tensor_path))
    assert code == 0
    assert "L0_B0_K_weights" in out
    code, out, _ = run_cli(capsys, "inspect", str(pair.tensor_path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["tensors"]) == 2 * 2 * 6


def test_scenario_phase5_runs_and_checks_pass(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scenario", "phase5", "--work-dir", str(tmp_path / "w"),
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["phase1_zero_reuse"]
    assert report["checks"]["monotonic_permanent_reuse"]


def test_scenario_outputs_are_byte_deterministic(capsys, tmp_path):
    outputs = []
    for name in ("d1", "d2"):
        code, out, _ = run_cli(
            capsys, "scenario", "routing10", "--work-dir", str(tmp_path / name),
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scenario_plot_and_trace_files(capsys, tmp_path):
    plot = tmp_path / "reuse.svg"
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "scenario", "phase5", "--work-dir", str(tmp_path / "w"),
        "--plot", str(plot), "--trace", str(trace),
    )
    assert code == 0
    svg = plot.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    lines = trace.read_text().splitlines()
    assert lines, "trace must not be empty"
    parsed = [json.loads(line) for line in lines]
    assert {p["mode"] for p in parsed} == {"cold", "persistent"}
    kinds = {p["kind"] for p in parsed}
    assert "first_token" in kinds and "done" in kinds


def test_scenario_unknown_name_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["scenario", "nope"])


@pytest.fixture
def served_configs(monkeypatch):
    """Configs that `serve` would start a daemon with; no daemon starts."""
    configs = []

    class FakeDaemon:
        def __init__(self, config):
            configs.append(config)

        def bind(self):
            return "fake-address"

        def serve_forever(self):
            pass

    monkeypatch.setattr(cli_module, "CacheDaemon", FakeDaemon)
    return configs


def test_serve_config_comes_from_flags_and_flag_files(capsys, tmp_path, served_configs):
    assert run_cli(capsys, "serve")[0] == 0
    assert served_configs[-1] == DaemonConfig()
    assert served_configs[-1].budget_bytes == DEFAULT_BUDGET_BYTES

    flags = tmp_path / "daemon.args"
    flags.write_text("--model=gemma3-12b\n--max-batch=4\n--seed=9\n")
    assert run_cli(capsys, "serve", f"@{flags}", "--seed", "5")[0] == 0
    assert served_configs[-1] == DaemonConfig(model="gemma3-12b", max_batch=4, seed=5)

    assert run_cli(capsys, "serve", "--budget", "1GB")[0] == 0
    assert served_configs[-1].budget_bytes == 2**30

    # the documented default written out is the default, to the byte
    assert run_cli(capsys, "serve", "--budget", "10.2GB")[0] == 0
    assert served_configs[-1].budget_bytes == DEFAULT_BUDGET_BYTES


def test_serve_bad_budget_exits_1(capsys, served_configs):
    code, _, err = run_cli(capsys, "serve", "--budget", "nonsense")
    assert code == 1
    assert "InvalidArgumentError" in err
    assert served_configs == []


@pytest.mark.parametrize("port", ["70000", "-1", "http"])
def test_serve_bad_tcp_port_is_a_usage_error(capsys, served_configs, port):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--tcp-port", port])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--tcp-port" in err
    assert served_configs == []


def spawn_daemon(tmp_path, extra=()):
    socket_path = tmp_path / "cli.sock"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "agentkv.cli", "serve",
            "--model", "llama31-8b",
            "--cache-dir", str(tmp_path / "cache"),
            "--socket", str(socket_path),
            "--chunk-tokens", "8",
            *extra,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening on" in line
    return proc, str(socket_path)


def test_client_against_live_daemon(capsys, tmp_path):
    proc, address = spawn_daemon(tmp_path)
    try:
        code, out, _ = run_cli(capsys, "client", "--address", address, "--op", "stats")
        assert code == 0
        response = json.loads(out.splitlines()[-1])
        assert response["ok"] and response["result"]["resident_bytes"] == 0
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()


def test_cli_module_entrypoint_runs():
    out = subprocess.run(
        [sys.executable, "-m", "agentkv.cli", "capacity", "--model", "llama31-8b",
         "--contexts", "4k", "--format", "tsv"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "4096" in out.stdout
