"""Daemon protocol tests: totality, framing, delegation, restart survival."""

import gc
import json
import threading
import tracemalloc

import pytest

from agentkv import daemon as daemon_module
from agentkv.daemon import CacheDaemon, DaemonClient, DaemonConfig

from .helpers import tiny_spec


@pytest.fixture
def daemon(tmp_path):
    config = DaemonConfig(
        model="llama31-8b",
        cache_dir=str(tmp_path / "cache"),
        socket_path=str(tmp_path / "d.sock"),
        chunk_tokens=8,
        max_batch=2,
        seed=3,
    )
    d = CacheDaemon(config)
    address = d.bind()
    thread = threading.Thread(target=d.serve_forever, daemon=True)
    thread.start()
    yield d, address
    d.shutdown()


def connect(address):
    return DaemonClient(address, timeout=20.0)


def test_stats_round_trip(daemon):
    _, address = daemon
    client = connect(address)
    response = client.request("stats")
    assert response["ok"]
    result = response["result"]
    assert result["resident_bytes"] == 0
    assert result["agents_hot"] == 0
    assert set(result) == {"resident_bytes", "budget_bytes", "agents_hot", "agents_warm",
                           "evictions", "reloads", "engine"}
    assert set(result["engine"]) == {"tokenize_calls", "prefill_calls", "prefill_tokens",
                                     "decode_steps", "decode_tokens", "reentrancy_violations"}
    client.close()


def test_unknown_op(daemon):
    _, address = daemon
    client = connect(address)
    response = client.request("frobnicate")
    assert not response["ok"]
    assert response["error"]["code"] == "unknown_op"
    client.close()


def test_malformed_json_keeps_connection_open(daemon):
    _, address = daemon
    client = connect(address)
    client.send_raw("this is not json\n")
    message = client._read_line()
    assert message["ok"] is False
    assert message["error"]["code"] == "bad_json"
    # connection still usable
    response = client.request("stats")
    assert response["ok"]
    client.close()


def test_submit_run_streams_token_events(daemon):
    _, address = daemon
    client = connect(address)
    response = client.request(
        "submit",
        {"request_id": "r1", "agent_id": "alice", "prompt": "hello " * 20,
         "max_tokens": 3},
    )
    assert response["ok"]
    assert response["result"]["match"] is None  # fresh agent
    run = client.request("run")
    assert run["ok"]
    events = client.drain_events()
    kinds = [e["kind"] for e in events if e["request_id"] == "r1"]
    assert kinds == ["first_token", "token", "token", "done"]
    client.close()


def test_match_op_delegates(daemon):
    _, address = daemon
    client = connect(address)
    prompt = "context " * 16
    client.request(
        "submit",
        {"request_id": "r1", "agent_id": "bob", "prompt": prompt, "max_tokens": 1},
    )
    client.request("run")
    # transcript now includes a generated token; exact match on the prompt
    # alone is EXTEND territory for a longer prompt
    response = client.request("match", {"agent_id": "bob", "prompt": prompt})
    assert response["ok"]
    verdict = response["result"]["match"]["verdict"]
    assert verdict in ("extend", "exact")
    missing = client.request("match", {"agent_id": "ghost", "prompt": "x"})
    assert not missing["ok"]
    assert missing["error"]["code"] == "not_found"
    client.close()


def test_capacity_op(daemon):
    _, address = daemon
    client = connect(address)
    response = client.request(
        "capacity", {"model": "gemma3-12b", "budget": "10.2GB", "contexts": "8k"}
    )
    assert response["ok"]
    row = response["result"]["rows"][0]
    assert (row["fp16_agents_fit"], row["q4_agents_fit"]) == (3, 12)
    client.close()


def test_duplicate_request_id_error(daemon):
    _, address = daemon
    client = connect(address)
    params = {"request_id": "dup", "agent_id": "x", "prompt": "hi", "max_tokens": 1}
    assert client.request("submit", params)["ok"]
    client.request("run")
    again = client.request("submit", params)
    assert not again["ok"]
    assert again["error"]["code"] == "invalid_argument"
    client.close()


def test_concurrent_clients_each_get_matching_ids(daemon):
    _, address = daemon
    results = {}

    def worker(name):
        client = connect(address)
        try:
            for i in range(10):
                response = client.request("stats", msg_id=f"{name}-{i}")
                results[f"{name}-{i}"] = response["id"]
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 40
    assert all(key == value for key, value in results.items())


def test_save_restore_cycle_over_wire(daemon):
    d, address = daemon
    client = connect(address)
    prompt = "persistent state " * 8
    client.request(
        "submit",
        {"request_id": "r1", "agent_id": "keeper", "prompt": prompt, "max_tokens": 2},
    )
    client.request("run")
    saved = client.request("save_all")
    assert saved["ok"] and saved["result"]["saved"] >= 1
    dropped = client.request("drop", {"agent_id": "keeper", "delete_disk": False})
    assert dropped["ok"]
    restored = client.request("restore", {"agent_ids": ["keeper", "nobody"]})
    assert restored["ok"]
    events = restored["result"]["system_events"]
    outcomes = {e["payload"]["agent_id"]: e["payload"].get("ok", True) for e in events}
    assert outcomes["keeper"] is True
    assert outcomes["nobody"] is False
    stats = client.request("stats")["result"]
    assert stats["agents_hot"] == 1
    client.close()


def test_oversized_line_closes_connection(daemon):
    _, address = daemon
    client = connect(address)
    try:
        client.send_raw("x" * (17 * 2**20))  # no newline, over the cap
    except (BrokenPipeError, ConnectionError):
        pass  # server may close before the send completes
    try:
        message = client._read_line()
        assert message["error"]["code"] == "line_too_long"
    except ConnectionError:
        pass  # error line can be lost with the closed socket
    with pytest.raises((ConnectionError, OSError)):
        client.request("stats")
        client.request("stats")  # second round trip must surface the close
    client.close()


def test_events_stream_to_submitting_connection(daemon):
    """Tokens go to the submitter even when another client drives the steps."""
    _, address = daemon
    submitter = connect(address)
    driver = connect(address)
    response = submitter.request(
        "submit",
        {"request_id": "rs", "agent_id": "streamer", "prompt": "words " * 10,
         "max_tokens": 2},
    )
    assert response["ok"]
    run = driver.request("run")
    assert run["ok"]
    assert driver.drain_events() == []  # driver gets none of rs's tokens
    # the submitter's next round trip flushes its buffered event lines
    submitter.request("stats")
    kinds = [e["kind"] for e in submitter.drain_events() if e["request_id"] == "rs"]
    assert kinds == ["first_token", "token", "done"]
    submitter.close()
    driver.close()


def test_tcp_fallback(tmp_path):
    config = DaemonConfig(
        model="llama31-8b",
        cache_dir=str(tmp_path / "cache"),
        socket_path="",
        tcp_port=0,
        seed=1,
    )
    daemon = CacheDaemon(config)
    address = daemon.bind()
    assert address.startswith("127.0.0.1:")
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(address)
    assert client.request("stats")["ok"]
    client.close()
    daemon.shutdown()


def test_socket_path_from_environment(tmp_path, monkeypatch):
    from agentkv.daemon import SOCKET_ENV

    config = DaemonConfig(cache_dir=str(tmp_path / "c"))
    monkeypatch.setenv(SOCKET_ENV, str(tmp_path / "env.sock"))
    assert config.resolve_socket() == str(tmp_path / "env.sock")
    config.socket_path = str(tmp_path / "explicit.sock")
    assert config.resolve_socket() == str(tmp_path / "explicit.sock")
    monkeypatch.delenv(SOCKET_ENV)
    config.socket_path = ""
    assert config.resolve_socket() == ""


def test_config_file_parsing(tmp_path):
    path = tmp_path / "daemon.conf"
    path.write_text(
        """
# cache daemon settings
model = gemma3-12b
budget = 1GB
chunk_tokens = 128
max_batch = 4
cache_dir = /tmp/kv
seed = 9
"""
    )
    config = DaemonConfig.from_file(path)
    assert config.model == "gemma3-12b"
    assert config.budget_bytes == 2**30
    assert config.chunk_tokens == 128
    assert config.max_batch == 4
    assert config.cache_dir == "/tmp/kv"
    assert config.seed == 9


def test_shutdown_op(tmp_path):
    config = DaemonConfig(
        model="llama31-8b",
        cache_dir=str(tmp_path / "cache"),
        socket_path=str(tmp_path / "s.sock"),
    )
    daemon = CacheDaemon(config)
    address = daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(address)
    response = client.request("shutdown")
    assert response["ok"]
    thread.join(timeout=5)
    assert not thread.is_alive()
    client.close()


def test_long_line_in_small_pieces_then_second_request(daemon):
    _, address = daemon
    client = connect(address)
    prompt = "word" * (2**20 // 2)  # 2 MiB
    submit = {"id": "big", "op": "submit",
              "params": {"request_id": "rbig", "agent_id": "big", "prompt": prompt,
                         "max_tokens": 1}}
    data = (json.dumps(submit) + "\n").encode()
    piece = 4096
    cut = len(data) - 100
    for begin in range(0, cut, piece):
        client.sock.sendall(data[begin:min(begin + piece, cut)])
    # the line's last bytes and a whole second request in one send
    second = json.dumps({"id": "after", "op": "stats", "params": {}}) + "\n"
    client.sock.sendall(data[cut:] + second.encode())
    first_response = client._read_line()
    second_response = client._read_line()
    assert (first_response["id"], first_response["ok"]) == ("big", True)
    assert first_response["result"]["match"] is None
    assert (second_response["id"], second_response["ok"]) == ("after", True)
    assert second_response["result"]["engine"]["tokenize_calls"] == 1
    client.close()


def test_daemon_keeps_only_in_flight_state(tmp_path, monkeypatch):
    """2000 requests over fixed agents leave no per-request state behind."""
    spec = tiny_spec(layers=1, heads=1, k_dim=8, v_dim=8, block=8, group=8)
    monkeypatch.setattr(daemon_module, "preset", lambda name: spec)
    config = DaemonConfig(cache_dir=str(tmp_path / "cache"),
                          socket_path=str(tmp_path / "b.sock"),
                          chunk_tokens=512, max_batch=4)
    d = CacheDaemon(config)
    address = d.bind()
    threading.Thread(target=d.serve_forever, daemon=True).start()
    client = connect(address)
    agents = ["a0", "a1", "a2", "a3"]
    # 4 KiB prompts, block-aligned: after the first turn each resubmission
    # reuses the prompt's blocks and decodes one token, so the pool stays put
    prompts = {a: (a + ".") * 1024 for a in agents}
    counter = 0

    def rounds(n):
        nonlocal counter
        for _ in range(n):
            for agent in agents:
                counter += 1
                response = client.request("submit", {
                    "request_id": f"r{counter}", "agent_id": agent,
                    "prompt": prompts[agent], "max_tokens": 1,
                })
                assert response["ok"], response
            assert client.request("run")["ok"]
            done = [e for e in client.drain_events() if e["kind"] == "done"]
            assert len(done) == len(agents)
            assert all("error" not in e["payload"] for e in done)

    tracemalloc.start()
    try:
        rounds(25)  # warm up: first prefills, interned ids, grown containers
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        requests = 2000
        rounds(requests // len(agents))
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        client.close()
        d.shutdown()
    assert d.scheduler._requests == {}
    assert d._submitters == {}
    assert growth < 1024 * requests, f"{growth / requests:.0f} bytes per request"


def test_drop_of_agent_with_request_in_flight_is_refused(daemon):
    d, address = daemon
    client = connect(address)
    prompt = "word" * 24  # three 8-token chunks
    assert client.request("submit", {"request_id": "r1", "agent_id": "dropee",
                                     "prompt": prompt, "max_tokens": 2})["ok"]
    assert client.request("step")["ok"]  # the first chunk only
    dropped = client.request("drop", {"agent_id": "dropee", "delete_disk": True})
    assert not dropped["ok"]
    assert dropped["error"]["code"] == "invalid_argument"
    assert client.request("run")["ok"]
    (done,) = [e for e in client.drain_events() if e["kind"] == "done"]
    assert (done["payload"]["prompt_tokens"], done["payload"]["generated"]) == (24, 2)
    held = {}
    d._on_worker(lambda: held.update(tokens=d.pool.get_cache("dropee").token_count))
    assert held["tokens"] == 26
    assert client.request("drop", {"agent_id": "dropee"})["ok"]  # idle now
    client.close()


def test_request_after_shutdown_gets_shutting_down_reply(tmp_path):
    d = CacheDaemon(DaemonConfig(cache_dir=str(tmp_path / "cache"),
                                 socket_path=str(tmp_path / "s.sock")))
    address = d.bind()
    thread = threading.Thread(target=d.serve_forever, daemon=True)
    thread.start()
    stopper = DaemonClient(address, timeout=5.0)
    other = DaemonClient(address, timeout=5.0)
    assert other.request("stats")["ok"]
    assert stopper.request("shutdown")["ok"]
    thread.join(timeout=5)
    assert not thread.is_alive()
    response = other.request("stats")
    assert (response["id"], response["ok"]) == ("c2", False)
    assert response["error"]["code"] == "shutting_down"
    stopper.close()
    other.close()


def test_reader_held_across_shutdown_still_replies_shutting_down(tmp_path):
    """A reader that loses the race with shutdown keeps reading its socket.

    The hook holds the reader after its first reply until shutdown has
    finished and the second request is already on the wire, which is the
    interleaving that used to close the connection unanswered.
    """
    d = CacheDaemon(DaemonConfig(cache_dir=str(tmp_path / "cache"),
                                 socket_path=str(tmp_path / "s.sock")))
    held, release = threading.Event(), threading.Event()
    real_dispatch = d._dispatch

    def dispatch(conn, message):
        real_dispatch(conn, message)
        if message.get("id") == "first":
            held.set()
            release.wait(10)

    d._dispatch = dispatch
    address = d.bind()
    thread = threading.Thread(target=d.serve_forever, daemon=True)
    thread.start()
    stopper = DaemonClient(address, timeout=5.0)
    other = DaemonClient(address, timeout=5.0)
    assert other.request("stats", msg_id="first")["ok"]
    assert held.wait(5)
    assert stopper.request("shutdown")["ok"]
    thread.join(timeout=5)
    assert not thread.is_alive()
    other.send_raw(json.dumps({"id": "second", "op": "stats", "params": {}}) + "\n")
    release.set()
    response = other._read_line()
    assert (response["id"], response["ok"]) == ("second", False)
    assert response["error"]["code"] == "shutting_down"
    stopper.close()
    other.close()


class _Lines:
    """Stands in for a connection: keeps the lines the daemon sends."""

    def __init__(self):
        self.lines = []

    def send_line(self, obj):
        self.lines.append(obj)


def test_op_waiting_for_the_lane_at_shutdown_gets_shutting_down_reply(tmp_path):
    d = CacheDaemon(DaemonConfig(cache_dir=str(tmp_path / "cache")))
    started, release, queued = threading.Event(), threading.Event(), threading.Event()
    real_submit = d._lane.submit

    def submit(fn):
        future = real_submit(fn)
        if started.is_set():
            queued.set()
        return future

    d._lane.submit = submit

    def hold():
        started.set()
        release.wait(10)

    holder = threading.Thread(target=d._on_worker, args=(hold,))
    holder.start()
    assert started.wait(5)
    conn = _Lines()
    waiter = threading.Thread(
        target=d._dispatch, args=(conn, {"id": "w", "op": "stats", "params": {}})
    )
    waiter.start()
    assert queued.wait(5)  # stats waits behind hold
    d.shutdown()
    release.set()
    waiter.join(timeout=5)
    holder.join(timeout=5)
    assert not waiter.is_alive() and not holder.is_alive()
    (reply,) = conn.lines
    assert (reply["id"], reply["ok"], reply["error"]["code"]) == ("w", False, "shutting_down")


def test_one_lane_runs_every_scheduler_pool_and_engine_call(daemon):
    """Four clients at once: one thread, not a reader, makes every call."""
    d, address = daemon
    lane_calls = []  # (method, thread id)
    readers = set()

    def record(obj, owner):
        for name in dir(type(obj)):
            method = getattr(obj, name)
            if name.startswith("_") or not callable(method):
                continue

            def wrapped(*args, _method=method, _name=f"{owner}.{name}", **kwargs):
                lane_calls.append((_name, threading.get_ident()))
                return _method(*args, **kwargs)

            setattr(obj, name, wrapped)

    record(d.scheduler, "scheduler")
    record(d.pool, "pool")
    record(d.engine, "engine")
    dispatch = d._dispatch

    def reader_dispatch(conn, message):
        readers.add(threading.get_ident())
        dispatch(conn, message)

    d._dispatch = reader_dispatch
    failures = []

    def client_turns(i):
        client = connect(address)
        agent = f"agent{i}"
        try:
            prompt = ""
            for turn in range(3):
                prompt += f"turn {turn} of {agent}. " * 4
                for op, params in [
                    ("submit", {"request_id": f"{agent}-{turn}", "agent_id": agent,
                                "prompt": prompt, "max_tokens": 2}),
                    ("run", {}),
                    ("match", {"agent_id": agent, "prompt": prompt}),
                    ("save_all", {}),
                    ("stats", {}),
                ]:
                    response = client.request(op, params)
                    if not response["ok"]:
                        failures.append((op, response))
            response = client.request("drop", {"agent_id": agent, "delete_disk": True})
            if not response["ok"]:
                failures.append(("drop", response))
        finally:
            client.close()

    clients = [threading.Thread(target=client_turns, args=(i,)) for i in range(4)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in clients)
    assert failures == []
    assert len(readers) == 4
    lanes = {ident for _, ident in lane_calls}
    assert len(lanes) == 1 and lanes.isdisjoint(readers | {threading.get_ident()})
    names = {name for name, _ in lane_calls}
    assert {"scheduler.submit", "scheduler.step", "scheduler.drop_agent", "scheduler.save_all",
            "pool.get_cache", "pool.append_tokens", "pool.save_agent", "pool.stats",
            "engine.prefill_chunk", "engine.decode_step"} <= names
    assert d.engine.counters.reentrancy_violations == 0
