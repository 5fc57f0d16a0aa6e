"""The serving edge: an asyncio HTTP/1.1 gateway over a KAR application.

This is the REST surface of the KAR sidecar (Section 2 of the paper): actor
calls and tells, actor state CRUD, reminder CRUD, and the system views --
exposed over a real TCP socket by a hand-rolled HTTP/1.1 server (stdlib
only; keep-alive, ``Content-Length`` bodies, JSON in and out).

Two worlds meet here. HTTP clients live on real asyncio wall-clock time;
the KAR runtime lives entirely on the deterministic simulation kernel.
:class:`KernelBridge` joins them without threads: ``submit()`` hands a
simulation coroutine to the kernel and returns an asyncio future, and a
single asyncio "pump" task runs the kernel whenever something is in flight.
The pump is event-driven at both ends. ``submit()`` wakes it at once, so a
request never waits out an idle period; and a busy slice ends the moment
the last in-flight operation settles (the settlement itself stops the
kernel), so replies leave immediately and the kernel simulates only the
time the requests needed. With nothing in flight the pump parks on a
future and lets simulated time free-run in small idle ticks, so reminders,
leases and heartbeats keep firing between requests.

Failures map to a stable JSON error envelope::

    {"error": {"code": "breaker_open", "message": "..."}}

with typed codes and, for backpressure-style rejections, a ``Retry-After``
header derived from the runtime's own backoff policy or the breaker's
remaining cooldown -- clients are told *when* to come back, not just to go
away.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Coroutine

from repro.core.errors import (
    ActorMethodError,
    BreakerOpenError,
    InvocationCancelled,
    KarError,
    NoPlacementError,
    UnknownActorTypeError,
)
from repro.core.overload import BACKOFF
from repro.kvstore.errors import FencedClientError
from repro.mq.errors import FencedMemberError, StaleRouteError
from repro.net.metrics import GatewayMetrics
from repro.sim.kernel import Kernel, TaskKilled

if TYPE_CHECKING:
    from repro.core.app import KarApplication

__all__ = ["ERROR_STATUS", "KarGateway", "KernelBridge", "map_error"]


# ----------------------------------------------------------------------
# error mapping
# ----------------------------------------------------------------------

#: Exception type -> (HTTP status, envelope error code). Order matters:
#: the first ``isinstance`` match wins, so subclasses precede bases.
ERROR_STATUS: tuple[tuple[type[BaseException], int, str], ...] = (
    (UnknownActorTypeError, 404, "unknown_actor_type"),
    (BreakerOpenError, 503, "breaker_open"),
    (NoPlacementError, 503, "no_placement"),
    (StaleRouteError, 503, "stale_route"),
    (FencedClientError, 409, "fenced"),
    (FencedMemberError, 409, "fenced"),
    (ActorMethodError, 500, "actor_error"),
    (InvocationCancelled, 500, "invocation_cancelled"),
    (TaskKilled, 503, "component_lost"),
    (KarError, 500, "kar_error"),
)


def map_error(error: BaseException) -> tuple[int, str, str, float | None]:
    """Map a runtime exception to ``(status, code, message, retry_after)``.

    ``retry_after`` (seconds, or ``None``) comes from the breaker's own
    remaining cooldown when one is open, and from the runtime's retry
    backoff policy for transient routing failures -- the gateway never
    invents a delay the runtime would not itself wait.
    """
    for exc_type, status, code in ERROR_STATUS:
        if isinstance(error, exc_type):
            retry_after: float | None = None
            if isinstance(error, BreakerOpenError):
                retry_after = error.retry_after
            elif status == 503 and not isinstance(error, TaskKilled):
                retry_after = BACKOFF.bound(1)
            return status, code, str(error), retry_after
    return 500, "internal", str(error), None


# ----------------------------------------------------------------------
# the asyncio <-> simulation-kernel bridge
# ----------------------------------------------------------------------


#: Most simulated seconds one busy slice runs before the pump yields to the
#: event loop whether or not anything settled: a request parked on a long
#: simulated sleep must not starve the sockets.
_SLICE_BOUND = 0.25
#: One idle tick: with nothing in flight the pump parks this many wall-clock
#: seconds (a ``submit`` cuts it short), then advances the simulation by
#: ``_IDLE_ADVANCE`` simulated seconds, so simulated time free-runs ~25x
#: ahead of wall time between requests.
_IDLE_TICK = 0.002
_IDLE_ADVANCE = 0.05


class KernelBridge:
    """Drives a simulation kernel from inside a real asyncio event loop.

    Single-threaded by construction: the pump task enters the kernel through
    ``kernel.run`` -- which executes simulation callbacks inline -- and then
    yields to asyncio so sockets make progress. Completion callbacks
    registered by :meth:`submit` therefore always fire on the event-loop
    thread, and may resolve asyncio futures directly.

    While operations are in flight the pump runs busy slices back to back.
    A slice ends when nothing is in flight any more (the last settlement
    calls ``kernel.stop()``) or after ``_SLICE_BOUND`` simulated seconds,
    whichever comes first. Waiting for the whole in-flight set, not the
    first settlement, keeps concurrent requests in step, so the runtime
    batches their queue and store traffic (measured: ending at each
    settlement served 28 % fewer requests a second at 64 connections and
    was no faster at 2); the wait costs only the wall time of simulating
    at most ``_SLICE_BOUND`` seconds. With nothing in flight the pump parks
    on a future that :meth:`submit` resolves, waking every ``_IDLE_TICK``
    wall seconds only to let simulated time advance.

    The public integer/float attributes are lifetime counters, read as one
    dict by :meth:`stats`.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: Busy slices run / idle ticks taken / times ``submit`` woke a
        #: parked pump / operations settled / simulated seconds advanced.
        self.slices = 0
        self.idle_ticks = 0
        self.wakeups = 0
        self.settled = 0
        self.sim_seconds = 0.0
        self._pending = 0
        self._parked: asyncio.Future[None] | None = None
        self._pump_task: asyncio.Task[None] | None = None
        self._running = False

    @property
    def pending(self) -> int:
        """Submitted simulation coroutines that have not settled yet."""
        return self._pending

    def stats(self) -> dict[str, float]:
        """The counters: idle share and simulated seconds per request of a
        running gateway can be read from two snapshots of this."""
        return {
            "pending": self._pending,
            "slices": self.slices,
            "idle_ticks": self.idle_ticks,
            "wakeups": self.wakeups,
            "settled": self.settled,
            "sim_seconds": self.sim_seconds,
        }

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump(), name="kernel-bridge-pump"
        )

    async def stop(self) -> None:
        self._running = False
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None

    def submit(
        self, coro: Coroutine[Any, Any, Any], process: Any = None
    ) -> "asyncio.Future[Any]":
        """Run a simulation coroutine; resolve an asyncio future with it.

        Exceptions raised by the coroutine resolve the future rather than
        being recorded as kernel crashes (a rejected HTTP request is an
        answer, not a simulation fault). If the hosting process is killed
        mid-flight the future fails with :class:`TaskKilled`.
        """
        if not self._running:
            raise RuntimeError("bridge is not running")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()
        self._pending += 1

        def settle(result: Any, error: BaseException | None) -> None:
            self._pending -= 1
            self.settled += 1
            if not self._pending:
                # Nothing left to wait for: end the pump's slice now.
                self.kernel.stop()
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        async def runner() -> None:
            try:
                result = await coro
            except Exception as error:  # noqa: BLE001 - protocol boundary
                settle(None, error)
            else:
                settle(result, None)

        task = self.kernel.spawn(runner(), process=process, name="gateway-op")

        def on_completion(sim_future: Any) -> None:
            # Normal completion already settled inside ``runner``; this
            # catches the fail-stop path where the task was killed before
            # (or instead of) finishing.
            if future.done():
                return
            error = sim_future.exception()
            settle(None, error if error is not None else None)

        task.completion.add_done_callback(on_completion)
        if self._rouse():
            self.wakeups += 1
        return future

    def _rouse(self) -> bool:
        """Resume a parked pump; false when it was not parked."""
        parked = self._parked
        if parked is None or parked.done():
            return False
        parked.set_result(None)
        return True

    def _advance(self, sim_seconds: float) -> None:
        kernel = self.kernel
        before = kernel.now
        kernel.run(until=before + sim_seconds)
        self.sim_seconds += kernel.now - before

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while self._running:
            if self._pending:
                self._advance(_SLICE_BOUND)
                self.slices += 1
                await asyncio.sleep(0)
                continue
            self._parked = loop.create_future()
            timer = loop.call_later(_IDLE_TICK, self._rouse)
            try:
                await self._parked
            finally:
                timer.cancel()
                self._parked = None
            if not self._pending:  # the tick ran out; nothing was submitted
                self._advance(_IDLE_ADVANCE)
                self.idle_ticks += 1


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

_JSON_HEADERS = "Content-Type: application/json\r\n"
_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """A protocol-level rejection decided before/while parsing the request."""

    def __init__(self, status: int, code: str, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.close = close


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        headers: dict[str, str],
        body: bytes,
        keep_alive: bool,
    ):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> Any:
        """The request body as JSON; ``None`` when empty."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as error:
            raise _HttpError(400, "bad_json", f"invalid JSON body: {error}") from error


class _Reply:
    __slots__ = ("status", "payload", "retry_after")

    def __init__(
        self, status: int, payload: Any, retry_after: float | None = None
    ):
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


def _unquote(segment: str) -> str:
    """Percent-decode one path segment (no external imports needed)."""
    if "%" not in segment:
        return segment
    from urllib.parse import unquote

    return unquote(segment)


# ----------------------------------------------------------------------
# the gateway
# ----------------------------------------------------------------------


class KarGateway:
    """HTTP/1.1 REST server exposing one application's sidecar API.

    Routes (all request/response bodies are JSON)::

        POST   /actor/{type}/{id}/call/{method}        -> 200 {"value": ...}
        POST   /actor/{type}/{id}/tell/{method}        -> 202
        GET    /actor/{type}/{id}/state                -> 200 {"state": {...}}
        GET    /actor/{type}/{id}/state/{key}          -> 200 {"value": ...} | 404
        PUT    /actor/{type}/{id}/state/{key}          -> 200
        DELETE /actor/{type}/{id}/state/{key}          -> 200 | 404
        PUT    /actor/{type}/{id}/reminders/{rid}      -> 201
        GET    /actor/{type}/{id}/reminders            -> 200 {"reminders": [...]}
        DELETE /actor/{type}/{id}/reminders/{rid}      -> 200 | 404
        GET    /system/health                          -> 200 | 503
        GET    /system/stats[/{family}]                -> 200
        GET    /system/actors                          -> 200

    Construct over a settled :class:`~repro.core.app.KarApplication` (or
    cluster), then ``await start()`` inside a running event loop. The
    gateway owns the kernel pump for its lifetime: nothing else should
    step the kernel while the gateway is serving.
    """

    def __init__(
        self,
        app: "KarApplication",
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = 1 << 20,
        client_name: str = "gateway",
        sync_timeout: float | None = 30.0,
    ):
        self.app = app
        self.api = app.api(client_name)
        self.host = host
        self.port = port
        self.max_body = max_body
        self.sync_timeout = sync_timeout
        self.metrics = GatewayMetrics()
        self.bridge = KernelBridge(app.kernel)
        app.gateway_snapshot = self.stats
        self._server: asyncio.Server | None = None
        #: Live connection handlers and their writers, for :meth:`stop`.
        self._connections: dict[asyncio.Task[None], asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("gateway is not started")
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    def stats(self) -> dict[str, Any]:
        """The ``gateway`` stats family: route metrics plus pump counters."""
        return {**self.metrics.snapshot(), "bridge": self.bridge.stats()}

    async def start(self) -> tuple[str, int]:
        self.bridge.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=1 << 16
        )
        return self.address

    async def stop(self) -> None:
        """Stop listening, close every connection, wait for the handlers.

        A handler parked on a keep-alive read sees EOF and returns; one with
        a request in flight finishes it first (bounded by ``sync_timeout``
        for calls). Handlers are closed, never cancelled: a cancelled
        handler task makes asyncio's stream protocol log a ``CancelledError``.
        """
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None
        await self.bridge.stop()

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            await self.stop()
            raise

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    self._write_error(writer, error, keep_alive=not error.close)
                    await writer.drain()
                    if error.close:
                        break
                    continue
                if request is None:
                    break
                keep_alive = await self._handle(request, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request off the wire; ``None`` on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise _HttpError(
                400, "bad_request", "truncated request head", close=True
            ) from error
        except asyncio.LimitOverrunError as error:
            raise _HttpError(
                400, "bad_request", "request head too large", close=True
            ) from error

        try:
            text = head.decode("latin-1")
        except ValueError as error:  # pragma: no cover - latin-1 never fails
            raise _HttpError(400, "bad_request", "undecodable head", close=True) from error
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(
                400, "bad_request", f"malformed request line: {lines[0]!r}", close=True
            )
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(
                    400, "bad_request", f"malformed header line: {line!r}", close=True
                )
            headers[name.strip().lower()] = value.strip()

        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and version != "HTTP/1.0"

        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError as error:
            raise _HttpError(
                400, "bad_request", f"bad Content-Length: {length_header!r}", close=True
            ) from error
        if length < 0:
            raise _HttpError(400, "bad_request", "negative Content-Length", close=True)
        if length > self.max_body:
            # Discard the declared body before replying: closing with
            # unread bytes in the socket sends RST and the client never
            # sees the 413. The connection still dies with the rejection.
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _HttpError(
                413,
                "body_too_large",
                f"body of {length} bytes exceeds limit {self.max_body}",
                close=True,
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise _HttpError(
                    400, "bad_request", "truncated request body", close=True
                ) from error

        path, _, query = target.partition("?")
        return _Request(method.upper(), path, query, headers, body, keep_alive)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _handle(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        started = time.monotonic()
        route, actor_type, kind = "(unmatched)", None, None
        try:
            matched = self._match(request)
            if matched is None:
                raise _HttpError(
                    404, "unknown_route", f"no route for {request.method} {request.path}"
                )
            route, actor_type, kind, handler = matched
            reply = await handler()
        except _HttpError as error:
            reply = _Reply(
                error.status,
                {"error": {"code": error.code, "message": error.message}},
            )
        except asyncio.TimeoutError:
            reply = _Reply(
                504,
                {
                    "error": {
                        "code": "timeout",
                        "message": f"call did not settle within {self.sync_timeout}s",
                    }
                },
            )
        except Exception as error:  # noqa: BLE001 - protocol boundary
            status, code, message, retry_after = map_error(error)
            reply = _Reply(
                status, {"error": {"code": code, "message": message}}, retry_after
            )
        self._write_reply(writer, reply, request.keep_alive)
        self.metrics.observe(
            route,
            reply.status,
            time.monotonic() - started,
            actor_type=actor_type,
            kind=kind,
        )
        return request.keep_alive

    def _match(
        self, request: _Request
    ) -> tuple[str, str | None, str | None, Callable[[], Awaitable[_Reply]]] | None:
        """Resolve a request to ``(route_template, actor_type, kind, thunk)``."""
        parts = [_unquote(part) for part in request.path.split("/") if part]
        method = request.method

        if parts and parts[0] == "system":
            if len(parts) == 2 and parts[1] == "health" and method == "GET":
                return "GET /system/health", None, None, self._do_health
            if len(parts) == 2 and parts[1] == "stats" and method == "GET":
                return "GET /system/stats", None, None, lambda: self._do_stats(None)
            if len(parts) == 3 and parts[1] == "stats" and method == "GET":
                family = parts[2]
                return (
                    "GET /system/stats/{family}",
                    None,
                    None,
                    lambda: self._do_stats(family),
                )
            if len(parts) == 2 and parts[1] == "actors" and method == "GET":
                return "GET /system/actors", None, None, self._do_actors
            return None

        if not parts or parts[0] != "actor" or len(parts) < 4:
            return None
        actor_type, actor_id = parts[1], parts[2]
        rest = parts[3:]

        if len(rest) == 2 and rest[0] in ("call", "tell") and method == "POST":
            verb, m = rest[0], rest[1]
            template = f"POST /actor/{{type}}/{{id}}/{verb}/{{method}}"
            kind = "calls" if verb == "call" else "tells"
            return (
                template,
                actor_type,
                kind,
                lambda: self._do_invoke(verb, actor_type, actor_id, m, request),
            )

        if rest[0] == "state":
            if len(rest) == 1 and method == "GET":
                return (
                    "GET /actor/{type}/{id}/state",
                    actor_type,
                    "state",
                    lambda: self._do_state_all(actor_type, actor_id),
                )
            if len(rest) == 2 and method in ("GET", "PUT", "DELETE"):
                key = rest[1]
                template = f"{method} /actor/{{type}}/{{id}}/state/{{key}}"
                return (
                    template,
                    actor_type,
                    "state",
                    lambda: self._do_state_key(
                        method, actor_type, actor_id, key, request
                    ),
                )
            return None

        if rest[0] == "reminders":
            if len(rest) == 1 and method == "GET":
                return (
                    "GET /actor/{type}/{id}/reminders",
                    actor_type,
                    "reminders",
                    lambda: self._do_reminder_list(actor_type, actor_id),
                )
            if len(rest) == 2 and method in ("PUT", "DELETE"):
                reminder_id = rest[1]
                template = f"{method} /actor/{{type}}/{{id}}/reminders/{{rid}}"
                return (
                    template,
                    actor_type,
                    "reminders",
                    lambda: self._do_reminder(
                        method, actor_type, actor_id, reminder_id, request
                    ),
                )
            return None
        return None

    # ------------------------------------------------------------------
    # route handlers
    # ------------------------------------------------------------------
    def _submit(self, coro: Coroutine[Any, Any, Any]) -> "asyncio.Future[Any]":
        return self.bridge.submit(coro, process=self.api.endpoint().process)

    @staticmethod
    def _args(request: _Request) -> tuple[Any, ...]:
        payload = request.json()
        if payload is None:
            return ()
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad_request", "body must be a JSON object")
        args = payload.get("args", [])
        if not isinstance(args, list):
            raise _HttpError(400, "bad_request", '"args" must be a JSON array')
        return tuple(args)

    async def _do_invoke(
        self,
        verb: str,
        actor_type: str,
        actor_id: str,
        method: str,
        request: _Request,
    ) -> _Reply:
        args = self._args(request)
        if verb == "call":
            future = self._submit(self.api.call(actor_type, actor_id, method, args))
            if self.sync_timeout is not None:
                value = await asyncio.wait_for(future, self.sync_timeout)
            else:
                value = await future
            return _Reply(200, {"value": value})
        await self._submit(self.api.tell(actor_type, actor_id, method, args))
        return _Reply(202, {"status": "accepted"})

    async def _do_state_all(self, actor_type: str, actor_id: str) -> _Reply:
        state = await self._submit(self.api.state_all(actor_type, actor_id))
        return _Reply(200, {"state": state})

    async def _do_state_key(
        self,
        method: str,
        actor_type: str,
        actor_id: str,
        key: str,
        request: _Request,
    ) -> _Reply:
        if method == "GET":
            found, value = await self._submit(
                self.api.state_get(actor_type, actor_id, key)
            )
            if not found:
                raise _HttpError(404, "no_such_key", f"no state key {key!r}")
            return _Reply(200, {"value": value})
        if method == "PUT":
            payload = request.json()
            if not isinstance(payload, dict) or "value" not in payload:
                raise _HttpError(
                    400, "bad_request", 'body must be {"value": ...}'
                )
            await self._submit(
                self.api.state_set(actor_type, actor_id, key, payload["value"])
            )
            return _Reply(200, {"status": "ok"})
        removed = await self._submit(
            self.api.state_delete(actor_type, actor_id, key)
        )
        if not removed:
            raise _HttpError(404, "no_such_key", f"no state key {key!r}")
        return _Reply(200, {"status": "deleted"})

    async def _do_reminder_list(self, actor_type: str, actor_id: str) -> _Reply:
        listed = await self._submit(
            self.api.reminder_list(actor_type, actor_id)
        )
        return _Reply(200, {"reminders": listed})

    async def _do_reminder(
        self,
        method: str,
        actor_type: str,
        actor_id: str,
        reminder_id: str,
        request: _Request,
    ) -> _Reply:
        if method == "PUT":
            payload = request.json()
            if not isinstance(payload, dict):
                raise _HttpError(400, "bad_request", "body must be a JSON object")
            target = payload.get("method")
            delay = payload.get("delay")
            if not isinstance(target, str) or not isinstance(delay, (int, float)):
                raise _HttpError(
                    400,
                    "bad_request",
                    'body must include "method" (string) and "delay" (seconds)',
                )
            args = payload.get("args", [])
            if not isinstance(args, list):
                raise _HttpError(400, "bad_request", '"args" must be a JSON array')
            period = payload.get("period")
            if period is not None and not isinstance(period, (int, float)):
                raise _HttpError(400, "bad_request", '"period" must be a number')
            await self._submit(
                self.api.reminder_schedule(
                    actor_type,
                    actor_id,
                    reminder_id,
                    target,
                    float(delay),
                    tuple(args),
                    period=float(period) if period is not None else None,
                )
            )
            return _Reply(201, {"status": "scheduled", "id": reminder_id})
        cancelled = await self._submit(self.api.reminder_cancel(reminder_id))
        if not cancelled:
            raise _HttpError(404, "no_such_reminder", f"no reminder {reminder_id!r}")
        return _Reply(200, {"status": "cancelled"})

    async def _do_health(self) -> _Reply:
        health = self.api.health()
        return _Reply(200 if health["ready"] else 503, health)

    async def _do_stats(self, family: str | None) -> _Reply:
        try:
            stats = self.api.stats(family)
        except KeyError as error:
            raise _HttpError(
                404, "unknown_family", f"no stats family {family!r}"
            ) from error
        return _Reply(200, {"stats": stats, "family": family})

    async def _do_actors(self) -> _Reply:
        return _Reply(200, {"actor_types": list(self.api.actor_types())})

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    def _write_reply(
        self, writer: asyncio.StreamWriter, reply: _Reply, keep_alive: bool
    ) -> None:
        body = json.dumps(reply.payload).encode()
        reason = _REASONS.get(reply.status, "Unknown")
        head = (
            f"HTTP/1.1 {reply.status} {reason}\r\n"
            f"{_JSON_HEADERS}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        if reply.retry_after is not None:
            head += f"Retry-After: {max(1, math.ceil(reply.retry_after))}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)

    def _write_error(
        self, writer: asyncio.StreamWriter, error: _HttpError, keep_alive: bool
    ) -> None:
        reply = _Reply(
            error.status, {"error": {"code": error.code, "message": error.message}}
        )
        self._write_reply(writer, reply, keep_alive)
        self.metrics.observe(f"(protocol:{error.code})", error.status, 0.0)
