"""Long-running cache service over newline-delimited JSON.

One JSON object per line, UTF-8. Requests carry ``{"id", "op", "params"}``
and receive exactly one ``{"id", "ok", "result"|"error"}`` response.
Streaming events (tokens etc.) arrive as unsolicited ``{"event": ...}``
lines on the connection that submitted the request.

Threading: two threads, however many clients connect. The I/O thread,
which ``serve_forever`` starts, runs one asyncio event loop that accepts,
reads request lines and alone writes to sockets. The lane, a
single-worker executor, owns the scheduler, the engine and the pool,
runs ops strictly one at a time and never touches a socket: it hands
each line to the loop. So neither the scheduler nor the pool takes a
lock. A connection has one request in flight, and a client that leaves
more than ``UNREAD_CAP_BYTES`` unread is disconnected instead of
stalling the lane.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .block_pool import DEFAULT_BUDGET_BYTES, BlockPool
from .capacity import capacity_table, parse_budget, parse_contexts
from .engine import SyntheticEngine
from .errors import AgentKVError, ShuttingDownError
from .model_spec import preset
from .prefix import match
from .scheduler import Event, EventKind, Request, Scheduler

__all__ = ["CacheDaemon", "DaemonClient", "DaemonConfig", "SOCKET_ENV"]

SOCKET_ENV = "AGENTKV_SOCKET"
MAX_LINE_BYTES = 16 * 2**20
UNREAD_CAP_BYTES = 4 * MAX_LINE_BYTES  # output a client may leave unread


@dataclass
class DaemonConfig:
    model: str = "llama31-8b"
    budget_bytes: int = DEFAULT_BUDGET_BYTES
    chunk_tokens: int = 512
    max_batch: int = 2
    cache_dir: str = "agentkv-cache"
    socket_path: str = ""
    tcp_port: int = 0
    seed: int = 0

    def resolve_socket(self) -> str:
        return self.socket_path or os.environ.get(SOCKET_ENV, "")


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class _Connection:
    """One client's stream; only the I/O thread writes to it."""

    def __init__(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()

    def send_line(self, obj: dict) -> None:
        """Queue one line for the I/O thread to write; safe from any thread."""
        data = (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
        self._loop.call_soon_threadsafe(self._write, data)

    def _write(self, data: bytes) -> None:
        if self.transport.is_closing():
            return
        self.transport.write(data)
        if self.transport.get_write_buffer_size() > UNREAD_CAP_BYTES:
            self.transport.abort()  # the client stopped reading


class CacheDaemon:
    """Serve pool, matcher, persistence, and scheduler ops on a socket."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.spec = preset(config.model)
        self.pool = BlockPool(self.spec, config.cache_dir, budget_bytes=config.budget_bytes)
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
        # shutdown() cancels it, from any thread and any number of times;
        # that tells the I/O thread to close the listener
        self._stop: Future = Future()

    # -- the lane ----------------------------------------------------------------

    def _on_worker(self, fn) -> Future:
        """Queue fn on the lane and return its future.

        Raises ShuttingDownError when the lane no longer takes work. A
        future that shutdown cancels before it starts ends cancelled.
        """
        try:
            return self._lane.submit(fn)
        except RuntimeError as exc:  # the lane was shut down
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
        cache = self.pool.get_cache(agent_id)  # NotFoundError for an unknown agent
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

    def _dispatch(self, conn: _Connection, message: dict) -> Future | None:
        """Answer message, or queue its op on the lane and return the future.

        Runs on the I/O thread. The lane sends a queued op's reply, or the
        future's done-callback does if shutdown cancels the op.
        """
        msg_id = message.get("id")
        op = message.get("op")
        params = message.get("params") or {}
        if not isinstance(msg_id, str) or not isinstance(op, str) or not isinstance(params, dict):
            conn.send_line({"id": msg_id if isinstance(msg_id, str) else None,
                            **_error("invalid_request",
                                     "need string id, string op, object params")})
            return None
        if op == "shutdown":
            conn.send_line({"id": msg_id, "ok": True, "result": {}})
            self.shutdown()
            return None
        handler = self._OPS.get(op)
        if handler is None:
            conn.send_line({"id": msg_id, **_error("unknown_op", f"unknown op {op!r}")})
            return None

        def work():  # on the lane: the reply follows every event line the op sent
            try:
                answer = {"ok": True, "result": handler(self, conn, params)}
            except AgentKVError as exc:
                answer = _error(exc.code, str(exc))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:  # bad params
                answer = _error("invalid_request", repr(exc))
            conn.send_line({"id": msg_id, **answer})

        def if_cancelled(future: Future) -> None:
            if future.cancelled():  # shutdown dropped it from the lane's queue
                conn.send_line({"id": msg_id, **_error(ShuttingDownError.code,
                                                       "the daemon is shutting down")})

        try:
            future = self._on_worker(work)
        except ShuttingDownError as exc:
            conn.send_line({"id": msg_id, **_error(exc.code, str(exc))})
            return None
        future.add_done_callback(if_cancelled)
        return future

    # -- the I/O thread ------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        # Read until the client hangs up, not until shutdown: a request
        # that arrives after shutdown still gets its shutting_down reply.
        conn = _Connection(writer.transport)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.LimitOverrunError:
                    conn.send_line({"id": None, **_error(
                        "line_too_long", f"line exceeds {MAX_LINE_BYTES} bytes")})
                    return
                except (asyncio.IncompleteReadError, OSError):  # the client hung up
                    return
                if not line.strip():
                    continue
                try:
                    message = json.loads(line.decode("utf-8"))
                    if not isinstance(message, dict):
                        raise ValueError("not an object")
                except (UnicodeDecodeError, ValueError, RecursionError) as exc:
                    conn.send_line({"id": None, **_error("bad_json", str(exc))})
                    continue
                future = self._dispatch(conn, message)
                if future is not None:
                    # wait() returns, not raises, when shutdown cancels it
                    await asyncio.wait([asyncio.wrap_future(future)])
        finally:  # call_soon: close after the lines already queued
            asyncio.get_running_loop().call_soon(writer.close)

    async def _serve(self, closed: threading.Event) -> None:
        try:
            server = await asyncio.start_server(
                self._serve_connection, sock=self._listener, limit=MAX_LINE_BYTES
            )
            await asyncio.wait([asyncio.wrap_future(self._stop)])
            server.close()  # closes the listener: a connect is now refused
        finally:
            closed.set()
        # keep answering open connections; end with the last of them
        while tasks := asyncio.all_tasks() - {asyncio.current_task()}:
            await asyncio.wait(tasks)

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
        """Start the I/O thread; return once shutdown closed the listener."""
        if self._listener is None:
            self.bind()
        closed = threading.Event()
        threading.Thread(target=asyncio.run, args=(self._serve(closed),),
                         name="agentkv-io", daemon=True).start()
        closed.wait()

    def shutdown(self) -> None:
        """Refuse new work and have serve_forever close the listener.

        Connections still open keep being read and answered.
        """
        self._lane.shutdown(wait=False, cancel_futures=True)
        self._stop.cancel()


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
