"""Long-running cache service over newline-delimited JSON.

One JSON object per line, UTF-8. Requests carry ``{"id", "op", "params"}``
and receive exactly one ``{"id", "ok", "result"|"error"}`` response.
Streaming events (tokens etc.) arrive as unsolicited ``{"event": ...}``
lines on the connection that submitted the request.

Threading: one accept lane, one reader lane per client, and a single
worker lane that owns the scheduler, engine, and pool. Connection
readers enqueue closures onto the worker's queue and wait; the worker
executes them strictly one at a time, so at most one engine operation is
ever in flight no matter how many clients connect.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from .block_pool import DEFAULT_BUDGET_BYTES, BlockPool
from .blocks import CacheState
from .capacity import capacity_table, parse_budget, parse_contexts
from .engine import SyntheticEngine
from .errors import AgentKVError, InvalidArgumentError, NotFoundError
from .model_spec import preset
from .prefix import match
from .scheduler import Event, Request, Scheduler

__all__ = ["CacheDaemon", "DaemonClient", "DaemonConfig", "SOCKET_ENV"]

SOCKET_ENV = "AGENTKV_SOCKET"
MAX_LINE_BYTES = 16 * 2**20


@dataclass
class DaemonConfig:
    model: str = "llama31-8b"
    budget_bytes: float = DEFAULT_BUDGET_BYTES
    chunk_tokens: int = 512
    max_batch: int = 2
    cache_dir: str = "agentkv-cache"
    socket_path: str = ""
    tcp_port: int = 0
    seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> DaemonConfig:
        """Parse a key=value config file ('#' starts a comment)."""
        config = cls()
        for raw_line in Path(path).read_text().splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"bad config line: {raw_line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "model":
                config.model = value
            elif key == "budget":
                config.budget_bytes = parse_budget(value)
            elif key == "chunk_tokens":
                config.chunk_tokens = int(value)
            elif key == "max_batch":
                config.max_batch = int(value)
            elif key == "cache_dir":
                config.cache_dir = value
            elif key == "socket":
                config.socket_path = value
            elif key == "tcp_port":
                config.tcp_port = int(value)
            elif key == "seed":
                config.seed = int(value)
            else:
                raise InvalidArgumentError(f"unknown config key {key!r}")
        return config

    def resolve_socket(self) -> str:
        return self.socket_path or os.environ.get(SOCKET_ENV, "")


class _Connection:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.write_lock = threading.Lock()
        self.alive = True

    def send_line(self, obj: dict) -> None:
        data = (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
        with self.write_lock:
            if not self.alive:
                return
            try:
                self.sock.sendall(data)
            except OSError:
                self.alive = False


class CacheDaemon:
    """Serve pool, matcher, persistence, and scheduler ops on a socket."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.spec = preset(config.model)
        self.pool = BlockPool(
            self.spec, config.cache_dir, budget_bytes=int(config.budget_bytes)
        )
        self.engine = SyntheticEngine(self.spec, seed=config.seed)
        self.scheduler = Scheduler(
            self.pool,
            self.engine,
            chunk_tokens=config.chunk_tokens,
            max_batch=config.max_batch,
        )
        self._work: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._submitters: dict[str, _Connection] = {}

    # -- worker lane ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            fn, done = item
            try:
                fn()
            finally:
                done.set()

    def _on_worker(self, fn) -> None:
        """Run fn on the scheduler lane, wait, and re-raise its error here."""
        done = threading.Event()
        box: dict = {}

        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - transported to caller
                box["exc"] = exc

        self._work.put((wrapped, done))
        done.wait()
        if "exc" in box:
            raise box["exc"]

    # -- event routing ---------------------------------------------------------

    def _route_events(self, events: list[Event]) -> list[dict]:
        """Stream request events to their submitters; return the system ones."""
        system = []
        for event in events:
            payload = event.to_json_dict()
            conn = self._submitters.get(event.request_id) if event.request_id else None
            if conn is not None:
                conn.send_line({"event": payload})
            else:
                system.append(payload)
        return system

    # -- operations -------------------------------------------------------------

    def _op_submit(self, conn: _Connection, params: dict) -> dict:
        request = Request(
            request_id=str(params["request_id"]),
            agent_id=str(params["agent_id"]),
            prompt=str(params["prompt"]),
            max_tokens=int(params["max_tokens"]),
            persistent_cache_prefix=bool(params.get("persistent_cache_prefix", True)),
        )
        out: dict = {}

        def work():
            before = len(self.scheduler.trace)
            result = self.scheduler.submit(request)
            self._submitters[request.request_id] = conn
            out["match"] = result.to_json_dict() if result is not None else None
            out["system_events"] = self._route_events(self.scheduler.trace[before:])

        self._on_worker(work)
        return out

    def _op_step(self, params: dict) -> dict:
        out: dict = {}

        def work():
            events = self.scheduler.step()
            out["events"] = len(events)
            out["system_events"] = self._route_events(events)
            out["idle"] = not self.scheduler.has_work()

        self._on_worker(work)
        return out

    def _op_run(self, params: dict) -> dict:
        out: dict = {"events": 0, "steps": 0, "system_events": []}

        def work():
            while self.scheduler.has_work():
                events = self.scheduler.step()
                out["steps"] += 1
                out["events"] += len(events)
                out["system_events"].extend(self._route_events(events))

        self._on_worker(work)
        return out

    def _op_match(self, params: dict) -> dict:
        agent_id = str(params["agent_id"])
        prompt = str(params["prompt"])
        out: dict = {}

        def work():
            if self.pool.agent_state(agent_id) is CacheState.COLD:
                raise NotFoundError(f"agent {agent_id!r} has no cache")
            before = len(self.scheduler.trace)
            cache = self.pool.get_cache(agent_id)
            out["match"] = match(cache, prompt, self.spec.block_tokens).to_json_dict()
            out["system_events"] = self._route_events(self.scheduler.trace[before:])

        self._on_worker(work)
        return out

    def _op_save_all(self, params: dict) -> dict:
        out: dict = {}

        def work():
            events = self.scheduler.save_all()
            out["system_events"] = self._route_events(events)
            out["saved"] = len(out["system_events"])

        self._on_worker(work)
        return out

    def _op_restore(self, params: dict) -> dict:
        agent_ids = [str(a) for a in params.get("agent_ids", [])]
        out: dict = {}

        def work():
            events = self.scheduler.restore(agent_ids)
            out["system_events"] = self._route_events(events)

        self._on_worker(work)
        return out

    def _op_drop(self, params: dict) -> dict:
        agent_id = str(params["agent_id"])
        delete_disk = bool(params.get("delete_disk", False))

        def work():
            self.pool.drop_agent(agent_id, delete_disk=delete_disk)

        self._on_worker(work)
        return {}

    def _op_stats(self, params: dict) -> dict:
        out: dict = {}

        def work():
            stats = self.pool.stats()
            counters = self.engine.counters
            out.update(
                {
                    "resident_bytes": stats.resident_bytes,
                    "budget_bytes": stats.budget_bytes,
                    "agents_hot": stats.agents_hot,
                    "agents_warm": stats.agents_warm,
                    "evictions": stats.evictions,
                    "reloads": stats.reloads,
                    "engine": {
                        "prefill_tokens": counters.prefill_tokens,
                        "prefill_calls": counters.prefill_calls,
                        "decode_steps": counters.decode_steps,
                        "decode_tokens": counters.decode_tokens,
                        "reentrancy_violations": counters.reentrancy_violations,
                    },
                }
            )

        self._on_worker(work)
        return out

    def _op_capacity(self, params: dict) -> dict:
        spec = preset(str(params.get("model", self.config.model)))
        budget = parse_budget(str(params.get("budget", "10.2GB")))
        contexts = parse_contexts(str(params.get("contexts", "4k,8k,16k,32k")))
        rows = capacity_table(spec, budget, contexts)
        return {
            "model": spec.model_id,
            "rows": [
                {
                    "context_tokens": r.context_tokens,
                    "fp16_bytes_per_agent": r.fp16_bytes_per_agent,
                    "q4_bytes_per_agent": r.q4_bytes_per_agent,
                    "fp16_agents_fit": r.fp16_agents_fit,
                    "q4_agents_fit": r.q4_agents_fit,
                }
                for r in rows
            ],
        }

    def _dispatch(self, conn: _Connection, message: dict) -> None:
        msg_id = message.get("id")
        op = message.get("op")
        params = message.get("params") or {}
        if not isinstance(msg_id, str) or not isinstance(op, str) or not isinstance(params, dict):
            conn.send_line(
                {
                    "id": msg_id if isinstance(msg_id, str) else None,
                    "ok": False,
                    "error": {"code": "invalid_request",
                              "message": "need string id, string op, object params"},
                }
            )
            return
        try:
            if op == "submit":
                result = self._op_submit(conn, params)
            elif op == "step":
                result = self._op_step(params)
            elif op == "run":
                result = self._op_run(params)
            elif op == "match":
                result = self._op_match(params)
            elif op == "save_all":
                result = self._op_save_all(params)
            elif op == "restore":
                result = self._op_restore(params)
            elif op == "drop":
                result = self._op_drop(params)
            elif op == "stats":
                result = self._op_stats(params)
            elif op == "capacity":
                result = self._op_capacity(params)
            elif op == "shutdown":
                conn.send_line({"id": msg_id, "ok": True, "result": {}})
                self.shutdown()
                return
            else:
                conn.send_line(
                    {
                        "id": msg_id,
                        "ok": False,
                        "error": {"code": "unknown_op", "message": f"unknown op {op!r}"},
                    }
                )
                return
        except AgentKVError as exc:
            conn.send_line(
                {"id": msg_id, "ok": False,
                 "error": {"code": exc.code, "message": str(exc)}}
            )
            return
        except (KeyError, TypeError, ValueError) as exc:
            conn.send_line(
                {"id": msg_id, "ok": False,
                 "error": {"code": "invalid_request", "message": repr(exc)}}
            )
            return
        conn.send_line({"id": msg_id, "ok": True, "result": result})

    # -- socket plumbing ---------------------------------------------------------

    def _reader_loop(self, conn: _Connection) -> None:
        buffer = b""
        sock = conn.sock
        while not self._stop.is_set():
            try:
                data = sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            buffer += data
            if len(buffer) > MAX_LINE_BYTES and b"\n" not in buffer:
                conn.send_line(
                    {"id": None, "ok": False,
                     "error": {"code": "line_too_long",
                               "message": f"line exceeds {MAX_LINE_BYTES} bytes"}}
                )
                break
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                if len(line) > MAX_LINE_BYTES:
                    conn.send_line(
                        {"id": None, "ok": False,
                         "error": {"code": "line_too_long",
                                   "message": f"line exceeds {MAX_LINE_BYTES} bytes"}}
                    )
                    conn.alive = False
                    sock.close()
                    return
                try:
                    message = json.loads(line.decode("utf-8"))
                    if not isinstance(message, dict):
                        raise ValueError("not an object")
                except (UnicodeDecodeError, ValueError) as exc:
                    conn.send_line(
                        {"id": None, "ok": False,
                         "error": {"code": "bad_json", "message": str(exc)}}
                    )
                    continue
                self._dispatch(conn, message)
        conn.alive = False
        try:
            sock.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            conn = _Connection(client)
            threading.Thread(target=self._reader_loop, args=(conn,), daemon=True).start()

    def bind(self) -> str:
        """Bind the listening socket; returns its address for clients."""
        socket_path = self.config.resolve_socket()
        if socket_path:
            path = Path(socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(str(path))
            address = str(path)
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(("127.0.0.1", self.config.tcp_port))
            address = f"127.0.0.1:{self._listener.getsockname()[1]}"
        self._listener.listen(16)
        return address

    def serve_forever(self) -> None:
        """Run until shutdown; call bind() first."""
        if self._listener is None:
            self.bind()
        threading.Thread(target=self._worker_loop, daemon=True).start()
        threading.Thread(target=self._accept_loop, daemon=True).start()
        self._stop.wait()

    def shutdown(self) -> None:
        self._stop.set()
        self._work.put(None)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass


class DaemonClient:
    """Blocking client; unsolicited event lines accumulate in .events."""

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        is_tcp = (
            address.count(":") == 1
            and "/" not in address
            and address.rsplit(":", 1)[1].isdigit()
        )
        if is_tcp:
            host, port = address.rsplit(":", 1)
            self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(timeout)
            self.sock.connect(address)
        self._buffer = b""
        self._counter = 0
        self.events: list[dict] = []

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def _read_line(self) -> dict:
        while b"\n" not in self._buffer:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("daemon closed the connection")
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line.decode("utf-8"))

    def send_raw(self, text: str) -> None:
        self.sock.sendall(text.encode("utf-8"))

    def request(self, op: str, params: dict | None = None, msg_id: str | None = None) -> dict:
        """Send one request and wait for its response, buffering events."""
        self._counter += 1
        msg_id = msg_id or f"c{self._counter}"
        self.send_raw(
            json.dumps({"id": msg_id, "op": op, "params": params or {}}) + "\n"
        )
        while True:
            message = self._read_line()
            if "event" in message:
                self.events.append(message["event"])
                continue
            if message.get("id") == msg_id or message.get("id") is None:
                return message

    def drain_events(self) -> list[dict]:
        out = self.events
        self.events = []
        return out
