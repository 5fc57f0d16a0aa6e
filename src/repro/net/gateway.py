"""The serving edge: an asyncio HTTP/1.1 gateway over a KAR application.

This is the REST surface of the KAR sidecar (Section 2 of the paper): actor
calls and tells, actor state CRUD, reminder CRUD, and the system views --
exposed over a real TCP socket by a hand-rolled HTTP/1.1 server (stdlib
only; keep-alive, ``Content-Length`` bodies, JSON in and out).

Two worlds meet here. HTTP clients live on real asyncio wall-clock time;
the KAR runtime lives entirely on the deterministic simulation kernel.
:class:`KernelBridge` joins them without threads or tasks: ``submit()``
hands a simulation coroutine to the kernel and returns an asyncio future,
and the kernel is driven in slices from event-loop callbacks whenever
something is in flight. The pump is event-driven at both ends.
``submit()`` queues a slice at once, so a request never waits out an idle
period; and a busy slice ends the moment the last in-flight operation
settles (the settlement itself stops the kernel), so replies leave
immediately and the kernel simulates only the time the requests needed.
With nothing in flight simulated time free-runs in small idle ticks, so
reminders, leases and heartbeats keep firing between requests.

The HTTP side runs no coroutine either. Each connection is an
:class:`asyncio.Protocol` that parses requests out of its own buffer and
answers them one at a time: a route is answered inside ``data_received``,
or by the done-callback of the one ``submit()`` whose simulation
coroutine builds the reply. One timer, armed for the oldest deadline,
expires every in-flight call that outlives ``sync_timeout``.

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
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Union, cast

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
#: One idle tick: with nothing in flight the pump waits this many wall-clock
#: seconds (a ``submit`` cuts it short), then advances the simulation by
#: ``_IDLE_ADVANCE`` simulated seconds, so simulated time free-runs ~25x
#: ahead of wall time between requests.
_IDLE_TICK = 0.002
_IDLE_ADVANCE = 0.05


class KernelBridge:
    """Drives a simulation kernel from inside a real asyncio event loop.

    Single-threaded by construction: the pump is a chain of event-loop
    callbacks, each entering the kernel through ``kernel.run`` -- which
    executes simulation callbacks inline -- and returning so sockets make
    progress. Completion callbacks registered by :meth:`submit` therefore
    always fire on the event-loop thread, and may resolve asyncio futures
    directly.

    While operations are in flight the pump runs busy slices, each queued
    with ``call_soon`` by the one before, so the loop gets a turn between
    any two. A slice ends when nothing is in flight any more (the last
    settlement calls ``kernel.stop()``) or after ``_SLICE_BOUND`` simulated
    seconds, whichever comes first. Waiting for the whole in-flight set,
    not the first settlement, keeps concurrent requests in step, so the
    runtime batches their queue and store traffic (measured: ending at each
    settlement served 28 % fewer requests a second at 64 connections and
    was no faster at 2); the wait costs only the wall time of simulating at
    most ``_SLICE_BOUND`` seconds. A slice that leaves nothing in flight
    arms the idle tick, which :meth:`submit` cancels; left alone it fires
    every ``_IDLE_TICK`` wall seconds only to let simulated time advance.

    The public integer/float attributes are lifetime counters, read as one
    dict by :meth:`stats`.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: Busy slices run / idle ticks taken / times ``submit`` cut an idle
        #: tick short / operations settled / simulated seconds advanced.
        self.slices = 0
        self.idle_ticks = 0
        self.wakeups = 0
        self.settled = 0
        self.sim_seconds = 0.0
        self._pending = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The queued busy slice, or the armed idle tick; never both.
        self._slice: asyncio.Handle | None = None
        self._idle: asyncio.TimerHandle | None = None

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
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._next()

    async def stop(self) -> None:
        for handle in (self._slice, self._idle):
            if handle is not None:
                handle.cancel()
        self._slice = self._idle = None
        self._loop = None

    def submit(
        self, coro: Coroutine[Any, Any, Any], process: Any = None
    ) -> "asyncio.Future[Any]":
        """Run a simulation coroutine; resolve an asyncio future with it.

        Exceptions raised by the coroutine resolve the future rather than
        being recorded as kernel crashes (a rejected HTTP request is an
        answer, not a simulation fault). If the hosting process is killed
        mid-flight the future fails with :class:`TaskKilled`.
        """
        loop = self._loop
        if loop is None:
            raise RuntimeError("bridge is not running")
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
            # ``runner`` settles every outcome it sees; the task ends with an
            # exception only on the fail-stop path, where it was killed
            # before (or instead of) finishing. Not ``future.done()``: the
            # gateway may have answered the future already (a timeout).
            error = sim_future.exception()
            if error is not None:
                settle(None, error)

        task.completion.add_done_callback(on_completion)
        if self._slice is None:
            if self._idle is not None:
                self._idle.cancel()
                self._idle = None
                self.wakeups += 1
            self._slice = loop.call_soon(self._run_slice)
        return future

    def _advance(self, sim_seconds: float) -> None:
        kernel = self.kernel
        before = kernel.now
        kernel.run(until=before + sim_seconds)
        self.sim_seconds += kernel.now - before

    def _next(self) -> None:
        """Queue the next busy slice, or arm the idle tick."""
        assert self._loop is not None
        if self._pending:
            self._slice = self._loop.call_soon(self._run_slice)
        else:
            self._idle = self._loop.call_later(_IDLE_TICK, self._idle_tick)

    def _run_slice(self) -> None:
        self._slice = None
        self._advance(_SLICE_BOUND)
        self.slices += 1
        self._next()

    def _idle_tick(self) -> None:
        self._idle = None
        self._advance(_IDLE_ADVANCE)
        self.idle_ticks += 1
        self._next()


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
#: Largest request head (request line plus headers) a connection buffers.
_HEAD_LIMIT = 1 << 16


class _HttpError(Exception):
    """A rejection the gateway decides itself, not the runtime."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


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


#: What a route thunk returns: the reply itself, or the simulation coroutine
#: that builds it (the gateway submits it to the bridge).
_Outcome = Union[_Reply, Coroutine[Any, Any, _Reply]]
#: A matched route: ``(route template, actor type, metrics kind, thunk)``.
_Route = tuple[str, Union[str, None], Union[str, None], Callable[[], _Outcome]]
#: A request being answered: ``(request, route, actor type, kind, started)``.
_Exchange = tuple[_Request, str, Union[str, None], Union[str, None], float]


def _unquote(segment: str) -> str:
    """Percent-decode one path segment (no external imports needed)."""
    if "%" not in segment:
        return segment
    from urllib.parse import unquote

    return unquote(segment)


def _parse_head(text: str) -> tuple[_Request, int]:
    """Parse a request head (without its blank line) into the request, body
    still empty, and its declared ``Content-Length``."""
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "bad_request", f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, "bad_request", f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and version != "HTTP/1.0"
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError as error:
        raise _HttpError(
            400, "bad_request", f"bad Content-Length: {length_header!r}"
        ) from error
    if length < 0:
        raise _HttpError(400, "bad_request", "negative Content-Length")
    path, _, query = target.partition("?")
    return _Request(method.upper(), path, query, headers, b"", keep_alive), length


class _Connection(asyncio.Protocol):
    """One client connection: parses requests out of its own buffer and
    answers them one at a time, in order; pipelined bytes wait.

    A protocol error (a head over ``_HEAD_LIMIT``, a malformed request line
    or header, a bad ``Content-Length``, EOF inside a request) is answered
    400 and closes the connection. A body over ``max_body`` is read and
    dropped in full before its 413 goes out and the connection closes:
    closing with unread bytes in the socket sends RST, and the client would
    never see the reply.
    """

    def __init__(self, gateway: "KarGateway"):
        self.gateway = gateway
        self.transport: asyncio.Transport  # set first, by connection_made
        self.buffer = bytearray()
        #: Bytes of ``buffer`` already searched for the end of a head.
        self.scanned = 0
        #: A parsed head whose ``length``-byte body is not all buffered yet.
        self.head: _Request | None = None
        self.length = 0
        #: An oversized body's 413, sent once ``discard`` more bytes are dropped.
        self.rejected: _HttpError | None = None
        self.discard = 0
        #: The request being answered and its submitted future, if any.
        self.exchange: _Exchange | None = None
        self.inflight: asyncio.Future[_Reply] | None = None
        self.eof = False
        #: The transport's write buffer is full: answer nothing more yet.
        self.paused = False
        #: The gateway is stopping: close after the reply in flight.
        self.closing = False

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.gateway._connections.add(self)
        if self.gateway._drained is not None:
            self.shut()

    def connection_lost(self, exc: Exception | None) -> None:
        self.gateway._forget(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.inflight is None and not self.paused:
            self.serve()
        elif len(self.buffer) > _HEAD_LIMIT:
            # Busy: let the client's pipelined bytes wait in its socket.
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        self.serve()
        return True  # keep the write half open for the reply in flight

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.serve()

    # -- requests ----------------------------------------------------------
    def serve(self) -> None:
        """Answer buffered requests in order until one is in flight, no
        whole request is buffered, or the connection is done."""
        transport = self.transport
        while self.inflight is None and not self.paused:
            if transport.is_closing():
                return
            try:
                request = self.parse()
            except _HttpError as error:
                self.gateway._reject(self, error)
                return
            if request is None:
                if self.eof:
                    transport.close()
                elif not transport.is_reading():
                    transport.resume_reading()
                return
            self.gateway._dispatch(self, request)

    def parse(self) -> _Request | None:
        """The next whole request off the buffer; ``None`` until one has
        arrived. Raises :class:`_HttpError` for a protocol error."""
        buffer = self.buffer
        if self.head is None and self.rejected is None:
            end = buffer.find(b"\r\n\r\n", self.scanned)
            if end < 0:
                if len(buffer) > _HEAD_LIMIT:
                    raise _HttpError(400, "bad_request", "request head too large")
                if self.eof and buffer:
                    raise _HttpError(400, "bad_request", "truncated request head")
                self.scanned = max(0, len(buffer) - 3)
                return None
            if end + 4 > _HEAD_LIMIT:
                raise _HttpError(400, "bad_request", "request head too large")
            parsed, length = _parse_head(buffer[:end].decode("latin-1"))
            del buffer[: end + 4]
            self.scanned = 0
            max_body = self.gateway.max_body
            if length > max_body:
                self.rejected = _HttpError(
                    413,
                    "body_too_large",
                    f"body of {length} bytes exceeds limit {max_body}",
                )
                self.discard = length
            else:
                self.head, self.length = parsed, length
        if self.rejected is not None:
            dropped = min(len(buffer), self.discard)
            del buffer[:dropped]
            self.discard -= dropped
            if self.discard and not self.eof:
                return None
            raise self.rejected
        length = self.length
        if len(buffer) < length:
            if self.eof:
                raise _HttpError(400, "bad_request", "truncated request body")
            return None
        request = self.head
        assert request is not None
        if length:
            request.body = bytes(buffer[:length])
            del buffer[:length]
        self.head = None
        return request

    # -- replies -----------------------------------------------------------
    def write(self, reply: _Reply, keep_alive: bool) -> None:
        transport = self.transport
        if transport.is_closing():
            return  # the client went away; nobody reads the reply
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
        transport.write(head.encode("latin-1") + b"\r\n" + body)
        if not keep_alive:
            transport.close()

    def settled(self, future: "asyncio.Future[_Reply]") -> None:
        self.gateway._complete(self, future)

    def shut(self) -> None:
        """Close now if idle, else once the reply in flight is written."""
        self.closing = True
        if self.inflight is None:
            self.transport.close()


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

    A route's thunk returns a :class:`_Reply` to answer at once (the system
    views, and anything rejected before the runtime is involved), or the
    simulation coroutine that builds the reply; the gateway submits that
    to the bridge and answers from the future's done-callback. Calls past
    ``sync_timeout`` wall seconds are answered 504 by the one deadline
    timer; tells, state and reminders have no timeout.
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
        self._connections: set[_Connection] = set()
        #: Set while :meth:`stop` waits for the last connection to close.
        self._drained: asyncio.Future[None] | None = None
        #: Wall-clock deadline of each connection's in-flight call, oldest
        #: first (one ``sync_timeout`` for all, so submission order is
        #: deadline order), and the one timer armed for the oldest.
        self._deadlines: dict[_Connection, float] = {}
        self._timer: asyncio.TimerHandle | None = None

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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop listening and close every connection: an idle one at once,
        one with a request in flight after its reply (bounded by
        ``sync_timeout`` for calls). Returns when every connection is
        closed."""
        if self._server is not None:
            self._server.close()
            self._drained = asyncio.get_running_loop().create_future()
            for connection in list(self._connections):
                connection.shut()
            if self._connections:
                await self._drained
            self._drained = None
            await self._server.wait_closed()
            self._server = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._deadlines.clear()
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

    def _forget(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        drained = self._drained
        if not self._connections and drained is not None and not drained.done():
            drained.set_result(None)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, connection: _Connection, request: _Request) -> None:
        """Answer ``request`` at once, or submit its simulation coroutine
        and answer from the future's done-callback."""
        started = time.monotonic()
        route, actor_type, kind = "(unmatched)", None, None
        try:
            matched = self._match(request)
            if matched is None:
                raise _HttpError(
                    404, "unknown_route", f"no route for {request.method} {request.path}"
                )
            route, actor_type, kind, thunk = matched
            outcome = thunk()
        except Exception as error:  # noqa: BLE001 - protocol boundary
            outcome = self._error_reply(error)
        exchange = (request, route, actor_type, kind, started)
        if isinstance(outcome, _Reply):
            self._answer(connection, exchange, outcome)
            return
        future = self.bridge.submit(outcome, process=self.api.endpoint().process)
        connection.exchange = exchange
        connection.inflight = future
        if kind == "calls" and self.sync_timeout is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.sync_timeout
            self._deadlines[connection] = deadline
            if self._timer is None:
                self._timer = loop.call_at(deadline, self._expire)
        future.add_done_callback(connection.settled)

    def _complete(
        self, connection: _Connection, future: "asyncio.Future[_Reply]"
    ) -> None:
        """The done-callback of a submitted route: answer, then go on to
        the connection's next buffered request."""
        self._deadlines.pop(connection, None)
        exchange = connection.exchange
        assert exchange is not None
        connection.exchange = connection.inflight = None
        try:
            reply = future.result()
        except Exception as error:  # noqa: BLE001 - protocol boundary
            reply = self._error_reply(error)
        self._answer(connection, exchange, reply)
        connection.serve()

    def _expire(self) -> None:
        """The deadline timer: fail every call past its deadline (its
        done-callback answers 504), then re-arm for the oldest left."""
        self._timer = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadlines = self._deadlines
        while deadlines:
            connection = next(iter(deadlines))
            deadline = deadlines[connection]
            if deadline > now:
                self._timer = loop.call_at(deadline, self._expire)
                return
            del deadlines[connection]
            assert connection.inflight is not None
            connection.inflight.set_exception(asyncio.TimeoutError())

    def _answer(
        self, connection: _Connection, exchange: _Exchange, reply: _Reply
    ) -> None:
        request, route, actor_type, kind, started = exchange
        connection.write(reply, request.keep_alive and not connection.closing)
        self.metrics.observe(
            route,
            reply.status,
            time.monotonic() - started,
            actor_type=actor_type,
            kind=kind,
        )

    def _reject(self, connection: _Connection, error: _HttpError) -> None:
        """Answer a protocol error and close the connection."""
        connection.write(self._error_reply(error), keep_alive=False)
        self.metrics.observe(f"(protocol:{error.code})", error.status, 0.0)

    def _error_reply(self, error: Exception) -> _Reply:
        retry_after: float | None = None
        if isinstance(error, _HttpError):
            status, code, message = error.status, error.code, error.message
        elif isinstance(error, asyncio.TimeoutError):
            status, code = 504, "timeout"
            message = f"call did not settle within {self.sync_timeout}s"
        else:
            status, code, message, retry_after = map_error(error)
        return _Reply(
            status, {"error": {"code": code, "message": message}}, retry_after
        )

    def _match(self, request: _Request) -> _Route | None:
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
                lambda: self._invoke(
                    verb, actor_type, actor_id, m, self._args(request)
                ),
            )

        if rest[0] == "state":
            if len(rest) == 1 and method == "GET":
                return (
                    "GET /actor/{type}/{id}/state",
                    actor_type,
                    "state",
                    lambda: self._state_all(actor_type, actor_id),
                )
            if len(rest) == 2 and method in ("GET", "PUT", "DELETE"):
                key = rest[1]
                template = f"{method} /actor/{{type}}/{{id}}/state/{{key}}"
                return (
                    template,
                    actor_type,
                    "state",
                    lambda: self._state_key(
                        method,
                        actor_type,
                        actor_id,
                        key,
                        self._state_value(request) if method == "PUT" else None,
                    ),
                )
            return None

        if rest[0] == "reminders":
            if len(rest) == 1 and method == "GET":
                return (
                    "GET /actor/{type}/{id}/reminders",
                    actor_type,
                    "reminders",
                    lambda: self._reminder_list(actor_type, actor_id),
                )
            if len(rest) == 2 and method in ("PUT", "DELETE"):
                reminder_id = rest[1]
                template = f"{method} /actor/{{type}}/{{id}}/reminders/{{rid}}"
                return (
                    template,
                    actor_type,
                    "reminders",
                    lambda: self._reminder(
                        actor_type,
                        actor_id,
                        reminder_id,
                        self._reminder_spec(request) if method == "PUT" else None,
                    ),
                )
            return None
        return None

    # ------------------------------------------------------------------
    # route handlers: request validation runs on the event loop, before
    # anything is submitted; the ``async`` halves run in the simulation.
    # ------------------------------------------------------------------
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

    async def _invoke(
        self,
        verb: str,
        actor_type: str,
        actor_id: str,
        method: str,
        args: tuple[Any, ...],
    ) -> _Reply:
        if verb == "call":
            value = await self.api.call(actor_type, actor_id, method, args)
            return _Reply(200, {"value": value})
        await self.api.tell(actor_type, actor_id, method, args)
        return _Reply(202, {"status": "accepted"})

    async def _state_all(self, actor_type: str, actor_id: str) -> _Reply:
        state = await self.api.state_all(actor_type, actor_id)
        return _Reply(200, {"state": state})

    @staticmethod
    def _state_value(request: _Request) -> Any:
        payload = request.json()
        if not isinstance(payload, dict) or "value" not in payload:
            raise _HttpError(400, "bad_request", 'body must be {"value": ...}')
        return payload["value"]

    async def _state_key(
        self, method: str, actor_type: str, actor_id: str, key: str, value: Any
    ) -> _Reply:
        if method == "GET":
            found, value = await self.api.state_get(actor_type, actor_id, key)
            if not found:
                raise _HttpError(404, "no_such_key", f"no state key {key!r}")
            return _Reply(200, {"value": value})
        if method == "PUT":
            await self.api.state_set(actor_type, actor_id, key, value)
            return _Reply(200, {"status": "ok"})
        if not await self.api.state_delete(actor_type, actor_id, key):
            raise _HttpError(404, "no_such_key", f"no state key {key!r}")
        return _Reply(200, {"status": "deleted"})

    async def _reminder_list(self, actor_type: str, actor_id: str) -> _Reply:
        listed = await self.api.reminder_list(actor_type, actor_id)
        return _Reply(200, {"reminders": listed})

    @staticmethod
    def _reminder_spec(
        request: _Request,
    ) -> tuple[str, float, tuple[Any, ...], float | None]:
        """A reminder PUT body as ``(method, delay, args, period)``."""
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
        return (
            target,
            float(delay),
            tuple(args),
            float(period) if period is not None else None,
        )

    async def _reminder(
        self,
        actor_type: str,
        actor_id: str,
        reminder_id: str,
        spec: tuple[str, float, tuple[Any, ...], float | None] | None,
    ) -> _Reply:
        """Schedule the reminder ``spec`` describes; cancel it when ``None``."""
        if spec is not None:
            target, delay, args, period = spec
            await self.api.reminder_schedule(
                actor_type, actor_id, reminder_id, target, delay, args, period=period
            )
            return _Reply(201, {"status": "scheduled", "id": reminder_id})
        if not await self.api.reminder_cancel(reminder_id):
            raise _HttpError(404, "no_such_reminder", f"no reminder {reminder_id!r}")
        return _Reply(200, {"status": "cancelled"})

    def _do_health(self) -> _Reply:
        health = self.api.health()
        return _Reply(200 if health["ready"] else 503, health)

    def _do_stats(self, family: str | None) -> _Reply:
        try:
            stats = self.api.stats(family)
        except KeyError as error:
            raise _HttpError(
                404, "unknown_family", f"no stats family {family!r}"
            ) from error
        return _Reply(200, {"stats": stats, "family": family})

    def _do_actors(self) -> _Reply:
        return _Reply(200, {"actor_types": list(self.api.actor_types())})
