"""Long-running cache service over newline-delimited JSON.

One JSON object per line, UTF-8. Requests carry ``{"id", "op", "params"}``
and receive exactly one ``{"id", "ok", "result"|"error"}`` response.
Streaming events (tokens etc.) arrive as unsolicited ``{"event": ...}``
lines on the connection that submitted the request.

Threading: ``serve_forever``'s thread accepts, one reader thread per
client reads, and one lane, a single-worker executor, owns the
scheduler, the engine and the pool. A reader hands each op to the lane
and waits for its result; the lane runs ops strictly one at a time, so
at most one engine operation is ever in flight no matter how many
clients connect, and neither the scheduler nor the pool takes a lock.
The lane and the readers write to the same sockets, so each
connection's writes hold its own lock.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .block_pool import DEFAULT_BUDGET_BYTES, BlockPool
from .blocks import CacheState
from .capacity import capacity_table, parse_budget, parse_contexts
from .engine import SyntheticEngine
from .errors import AgentKVError, NotFoundError, ShuttingDownError
from .model_spec import preset
from .prefix import match
from .scheduler import Event, EventKind, Request, Scheduler

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
        self._lane = ThreadPoolExecutor(max_workers=1)
        self._listener: socket.socket | None = None
        self._submitters: dict[str, _Connection] = {}

    # -- the lane ----------------------------------------------------------------

    def _on_worker(self, fn) -> None:
        """Run fn on the lane, wait, and re-raise its error here.

        Raises ShuttingDownError when the lane no longer takes work, or
        when shutdown cancelled fn before it started.
        """
        try:
            future = self._lane.submit(fn)
        except RuntimeError as exc:  # the lane was shut down
            raise ShuttingDownError("the daemon is shutting down") from exc
        try:
            future.result()
        except CancelledError as exc:
            raise ShuttingDownError("the daemon is shutting down") from exc

    # -- event routing ---------------------------------------------------------

    def _route_events(self, events: list[Event]) -> list[dict]:
        """Stream request events to their submitters; return the system ones.

        A request's submitter is forgotten once its DONE event is sent.
        """
        system = []
        for event in events:
            payload = event.to_json_dict()
            rid = event.request_id
            conn = self._submitters.get(rid) if rid else None
            if conn is None:
                system.append(payload)
                continue
            conn.send_line({"event": payload})
            if event.kind is EventKind.DONE:
                del self._submitters[rid]
        return system

    # -- operations -------------------------------------------------------------
    # Each handler runs on the lane and returns the op's result.

    def _op_submit(self, conn: _Connection, params: dict) -> dict:
        request = Request(
            request_id=str(params["request_id"]),
            agent_id=str(params["agent_id"]),
            prompt=str(params["prompt"]),
            max_tokens=int(params["max_tokens"]),
            persistent_cache_prefix=bool(params.get("persistent_cache_prefix", True)),
        )
        result = self.scheduler.submit(request)
        self._submitters[request.request_id] = conn
        return {
            "match": result.to_json_dict() if result is not None else None,
            "system_events": self._route_events(self.scheduler.drain()),
        }

    def _op_step(self, conn: _Connection, params: dict) -> dict:
        events = self.scheduler.step()
        return {
            "events": len(events),
            "system_events": self._route_events(events),
            "idle": not self.scheduler.has_work(),
        }

    def _op_run(self, conn: _Connection, params: dict) -> dict:
        out: dict = {"events": 0, "steps": 0, "system_events": []}
        while self.scheduler.has_work():
            events = self.scheduler.step()
            out["steps"] += 1
            out["events"] += len(events)
            out["system_events"].extend(self._route_events(events))
        return out

    def _op_match(self, conn: _Connection, params: dict) -> dict:
        agent_id = str(params["agent_id"])
        prompt = str(params["prompt"])
        if self.pool.agent_state(agent_id) is CacheState.COLD:
            raise NotFoundError(f"agent {agent_id!r} has no cache")
        cache = self.pool.get_cache(agent_id)
        return {
            "match": match(cache, prompt, self.spec.block_tokens).to_json_dict(),
            "system_events": self._route_events(self.scheduler.drain()),
        }

    def _op_save_all(self, conn: _Connection, params: dict) -> dict:
        system = self._route_events(self.scheduler.save_all())
        return {"system_events": system, "saved": len(system)}

    def _op_restore(self, conn: _Connection, params: dict) -> dict:
        agent_ids = [str(a) for a in params.get("agent_ids", [])]
        return {"system_events": self._route_events(self.scheduler.restore(agent_ids))}

    def _op_drop(self, conn: _Connection, params: dict) -> dict:
        agent_id = str(params["agent_id"])
        self.scheduler.drop_agent(agent_id, delete_disk=bool(params.get("delete_disk", False)))
        return {}

    def _op_stats(self, conn: _Connection, params: dict) -> dict:
        return {**asdict(self.pool.stats()), "engine": asdict(self.engine.counters)}

    def _op_capacity(self, conn: _Connection, params: dict) -> dict:
        spec = preset(str(params.get("model", self.config.model)))
        budget = parse_budget(str(params.get("budget", "10.2GB")))
        contexts = parse_contexts(str(params.get("contexts", "4k,8k,16k,32k")))
        rows = capacity_table(spec, budget, contexts)
        return {"model": spec.model_id, "rows": [asdict(r) for r in rows]}

    _OPS = {
        "submit": _op_submit,
        "step": _op_step,
        "run": _op_run,
        "match": _op_match,
        "save_all": _op_save_all,
        "restore": _op_restore,
        "drop": _op_drop,
        "stats": _op_stats,
        "capacity": _op_capacity,
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
        if op == "shutdown":
            conn.send_line({"id": msg_id, "ok": True, "result": {}})
            self.shutdown()
            return
        handler = self._OPS.get(op)
        if handler is None:
            conn.send_line(
                {"id": msg_id, "ok": False,
                 "error": {"code": "unknown_op", "message": f"unknown op {op!r}"}}
            )
            return
        out: dict = {}

        def work():
            out["result"] = handler(self, conn, params)

        try:
            self._on_worker(work)
            reply = {"ok": True, "result": out["result"]}
        except AgentKVError as exc:
            reply = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
        except (KeyError, TypeError, ValueError) as exc:
            reply = {"ok": False, "error": {"code": "invalid_request", "message": repr(exc)}}
        conn.send_line({"id": msg_id, **reply})

    # -- socket plumbing ---------------------------------------------------------

    def _reader_loop(self, conn: _Connection) -> None:
        # Read until the client hangs up, not until shutdown: a request
        # that arrives after shutdown still gets its shutting_down reply.
        buffer = bytearray()
        sock = conn.sock
        while True:
            try:
                data = sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            scan = len(buffer)  # earlier bytes hold no newline
            buffer += data
            start = 0
            while (end := buffer.find(b"\n", scan)) != -1:
                line = buffer[start:end]
                start = scan = end + 1
                if not line.strip():
                    continue
                if len(line) > MAX_LINE_BYTES:
                    self._line_too_long(conn)
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
            del buffer[:start]
            if len(buffer) > MAX_LINE_BYTES:
                self._line_too_long(conn)
                break
        conn.alive = False
        try:
            sock.close()
        except OSError:
            pass

    @staticmethod
    def _line_too_long(conn: _Connection) -> None:
        conn.send_line(
            {"id": None, "ok": False,
             "error": {"code": "line_too_long",
                       "message": f"line exceeds {MAX_LINE_BYTES} bytes"}}
        )

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
        """Accept clients until shutdown; call bind() first."""
        if self._listener is None:
            self.bind()
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:  # shutdown() shut the listener
                return
            conn = _Connection(client)
            threading.Thread(target=self._reader_loop, args=(conn,), daemon=True).start()

    def shutdown(self) -> None:
        self._lane.shutdown(wait=False, cancel_futures=True)
        if self._listener is not None:
            try:
                # close() alone leaves a blocked accept() waiting, and
                # the listener accepting
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # already shut down
                pass
            self._listener.close()


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
