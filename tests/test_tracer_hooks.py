"""The benchmark's tracer (perfbench/tracer.py) must install against src/.

The tracer wraps agentkv functions and methods by name. A rename in src/
would otherwise surface only when a traced benchmark run dies at start-up.
The check runs in a subprocess so the patching cannot leak into other
tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys, threading
from tracer import Tracer, install

tracer = install(Tracer())

from agentkv.daemon import CacheDaemon, DaemonClient, DaemonConfig

work = sys.argv[1]
daemon = CacheDaemon(DaemonConfig(cache_dir=work + "/cache", socket_path=work + "/d.sock",
                                  budget_bytes=1 << 30))
address = daemon.bind()
thread = threading.Thread(target=daemon.serve_forever)
thread.start()
client = DaemonClient(address)
for op, params in [
    ("submit", {"request_id": "r1", "agent_id": "a", "prompt": "word" * 12, "max_tokens": 2}),
    ("run", {}),
    ("save_all", {}),
    ("drop", {"agent_id": "a"}),
    ("match", {"agent_id": "a", "prompt": "word" * 12}),
    ("shutdown", {}),
]:
    response = client.request(op, params)
    assert response["ok"], response
thread.join(timeout=30)
by_id = {span[0]: span for span in tracer.spans}
names = {span[2] for span in tracer.spans}
missing = {
    "daemon.dispatch", "daemon.work", "scheduler.submit", "scheduler.step",
    "engine.tokenize", "engine.prefill_chunk", "engine.decode_step", "batch.merge",
    "batch.update_and_fetch", "prefix.match", "block_pool.append_tokens",
    "block_pool.get_cache", "persistence.save_agent", "persistence.load_agent",
} - names
assert not missing, missing
for sid, parent, name, *_ in tracer.spans:
    if name == "daemon.work":
        assert by_id[parent][2] == "daemon.dispatch", by_id.get(parent)
"""


def test_benchmark_tracer_installs_and_records_every_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
