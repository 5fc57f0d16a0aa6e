"""The serving edge, end to end: real sockets against the simulated runtime.

Every test here talks to :class:`repro.net.KarGateway` over an actual TCP
connection -- hand-written HTTP/1.1 on the client side too, so the wire
format (status lines, headers, keep-alive, Retry-After) is asserted rather
than assumed. The suite covers the full sidecar surface (calls, tells,
state, reminders, system views), protocol-level rejections, the
exception-to-status mapping table, and exactly-once settlement across a
mid-request worker kill on the sqlite backend.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

import pytest

from helpers import Echo, Latch, PersistentLatch, make_app
from oracle import check_guarantee
from repro.core import (
    Actor,
    ActorMethodError,
    BreakerOpenError,
    InvocationCancelled,
    KarApplication,
    KarConfig,
    KarError,
    NoPlacementError,
    UnknownActorTypeError,
    overload,
)
from repro.core.overload import BACKOFF
from repro.kvstore.errors import FencedClientError
from repro.mq.errors import StaleLeaseError, StaleRouteError
from repro.net import ERROR_STATUS, KarGateway, KernelBridge, gateway, map_error
from repro.persist import PersistenceConfig
from repro.sim import Kernel
from repro.sim.kernel import TaskKilled


# ----------------------------------------------------------------------
# tiny raw HTTP client (the tests assert the wire format itself)
# ----------------------------------------------------------------------


async def send_raw(host: str, port: int, data: bytes):
    """One connection, one raw payload, read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


def parse_response(data: bytes):
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = json.loads(body) if body else None
    return status, payload, headers


async def request(host, port, method, path, payload=None, body=None):
    if body is None:
        body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return parse_response(await send_raw(host, port, head.encode() + body))


class KeepAliveClient:
    """A persistent connection issuing sequential requests."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def request(self, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        raw_head = await self.reader.readuntil(b"\r\n\r\n")
        status, _, headers = parse_response(raw_head + b"")
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length)
        return status, json.loads(body) if body else None, headers


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


class SlowCounter(Actor):
    """Exactly-once increments with a long execution window.

    ``incr`` marks itself started, sleeps (simulated) long enough for a
    test to kill its hosting component mid-execution, then commits via the
    read-then-tail-write discipline -- so no matter how many times retry
    orchestration re-runs the method, the increment lands exactly once.
    """

    async def incr(self, ctx, amount):
        await ctx.state.set("started", True)
        # Long in *simulated* seconds so the polling test reliably catches
        # the method mid-execution; the pump burns through it in well under
        # a wall-clock second.
        await ctx.sleep(300.0)
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, new_total):
        await ctx.state.set("total", new_total)
        return new_total

    async def total(self, ctx):
        return await ctx.state.get("total", 0)


def build_app(actor_classes=(Latch, PersistentLatch, Echo), config=None, **overrides):
    kernel, app = make_app(seed=7, config=config, **overrides)
    names = tuple(app.register_actor(cls) for cls in actor_classes)
    app.add_component("w1", names)
    app.add_component("w2", names)
    app.settle()
    return kernel, app


async def serve(app):
    gateway = KarGateway(app, port=0)
    host, port = await gateway.start()
    return gateway, host, port


# ----------------------------------------------------------------------
# the sidecar surface over a real socket
# ----------------------------------------------------------------------


def test_call_state_reminder_roundtrip_over_socket():
    kernel, app = build_app()

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            status, health, _ = await request(host, port, "GET", "/system/health")
            assert status == 200 and health["status"] == "ok" and health["ready"]

            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l1/call/set", {"args": [41]}
            )
            assert status == 200
            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l1/call/get"
            )
            assert (status, body) == (200, {"value": 41})

            # Tells are accepted before execution.
            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l1/tell/set", {"args": [5]}
            )
            assert (status, body) == (202, {"status": "accepted"})

            # State CRUD reads what the actor persisted.
            status, _, _ = await request(
                host, port, "POST", "/actor/PersistentLatch/p/call/set", {"args": [7]}
            )
            assert status == 200
            status, body, _ = await request(
                host, port, "GET", "/actor/PersistentLatch/p/state/v"
            )
            assert (status, body) == (200, {"value": 7})
            status, body, _ = await request(
                host, port, "GET", "/actor/PersistentLatch/p/state"
            )
            assert body == {"state": {"v": 7}}
            status, _, _ = await request(
                host, port, "PUT", "/actor/PersistentLatch/p/state/note",
                {"value": {"x": 1}},
            )
            assert status == 200
            status, body, _ = await request(
                host, port, "GET", "/actor/PersistentLatch/p/state/note"
            )
            assert body == {"value": {"x": 1}}
            status, _, _ = await request(
                host, port, "DELETE", "/actor/PersistentLatch/p/state/note"
            )
            assert status == 200
            status, body, _ = await request(
                host, port, "DELETE", "/actor/PersistentLatch/p/state/note"
            )
            assert (status, body["error"]["code"]) == (404, "no_such_key")

            # A reminder scheduled over HTTP fires inside the simulation.
            status, _, _ = await request(
                host, port, "PUT", "/actor/Latch/l1/reminders/r1",
                {"method": "set", "delay": 0.3, "args": [99]},
            )
            assert status == 201
            status, body, _ = await request(
                host, port, "GET", "/actor/Latch/l1/reminders"
            )
            assert status == 200 and [r["id"] for r in body["reminders"]] == ["r1"]
            deadline = asyncio.get_running_loop().time() + 10.0
            value = None
            while asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.02)  # idle pump advances simulated time
                _, body, _ = await request(
                    host, port, "POST", "/actor/Latch/l1/call/get"
                )
                value = body["value"]
                if value == 99:
                    break
            assert value == 99
            status, body, _ = await request(
                host, port, "DELETE", "/actor/Latch/l1/reminders/r1"
            )
            assert (status, body["error"]["code"]) == (404, "no_such_reminder")

            # The observability plane saw all of it, on both surfaces.
            status, body, _ = await request(
                host, port, "GET", "/system/stats/gateway"
            )
            assert status == 200
            snapshot = body["stats"]
            assert snapshot["requests_total"] > 10
            calls_route = snapshot["routes"]["POST /actor/{type}/{id}/call/{method}"]
            assert calls_route["requests"] >= 4
            assert calls_route["latency"]["count"] >= 4
            assert app.stats("gateway")["attached"]
            # The stats request records itself after snapshotting, so the
            # live tree is at least as far along as the HTTP snapshot.
            assert app.stats("gateway")["requests_total"] >= snapshot["requests_total"]

            status, body, _ = await request(host, port, "GET", "/system/actors")
            assert sorted(body["actor_types"]) == ["Echo", "Latch", "PersistentLatch"]
        finally:
            await gateway.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_concurrent_requests_interleave_across_connections():
    kernel, app = build_app()

    async def worker(host, port, lane):
        async with KeepAliveClient(host, port) as client:
            results = []
            for n in range(5):
                status, _, _ = await client.request(
                    "POST", f"/actor/Latch/lane{lane}/call/set", {"args": [lane * 100 + n]}
                )
                assert status == 200
                status, body, _ = await client.request(
                    "POST", f"/actor/Latch/lane{lane}/call/get"
                )
                assert status == 200
                results.append(body["value"])
            return results

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            lanes = await asyncio.gather(
                *(worker(host, port, lane) for lane in range(8))
            )
        finally:
            await gateway.stop()
        # Each keep-alive connection saw its own writes in order, even
        # while seven other connections interleaved on the same runtime.
        for lane, results in enumerate(lanes):
            assert results == [lane * 100 + n for n in range(5)]

    asyncio.run(scenario())
    kernel.check_no_crashes()
    assert app.stats("calls")["unsettled"] == []


# ----------------------------------------------------------------------
# exactly-once across a mid-request worker kill (sqlite backend)
# ----------------------------------------------------------------------


def test_exactly_once_settlement_across_mid_request_kill_sqlite(tmp_path):
    config = KarConfig.fast_test().with_overrides(
        persistence=PersistenceConfig(mode="sqlite", root=str(tmp_path / "durable"))
    )
    kernel = Kernel(seed=13)
    app = KarApplication.fresh(kernel, config, name="edge")
    app.register_actor(SlowCounter)
    app.add_component("host", ("SlowCounter",))
    app.settle()

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            call = asyncio.get_running_loop().create_task(
                request(
                    host, port, "POST", "/actor/SlowCounter/c/call/incr",
                    {"args": [5]},
                )
            )
            # Wait until the method is provably mid-execution (it has
            # persisted the "started" flag but not yet committed).
            while True:
                _, body, _ = await request(
                    host, port, "GET", "/actor/SlowCounter/c/state"
                )
                if body["state"].get("started"):
                    break
                await asyncio.sleep(0.01)
            assert "total" not in body["state"]

            # Fail-stop the hosting component under the in-flight request,
            # then bring a replacement up; retry orchestration must re-run
            # the method and settle the original HTTP call exactly once.
            app.kill_component("host")
            app.restart_component("host")

            status, body, _ = await call
            assert (status, body) == (200, {"value": 5})

            status, body, _ = await request(
                host, port, "POST", "/actor/SlowCounter/c/call/total"
            )
            assert (status, body) == (200, {"value": 5})  # once, not twice
        finally:
            await gateway.stop()

    try:
        asyncio.run(scenario())
        check_guarantee(app)
    finally:
        app.shutdown()  # releases the journal's lock file


# ----------------------------------------------------------------------
# the event-driven pump (asserted on the bridge's counters, not wall time)
# ----------------------------------------------------------------------


def test_submit_wakes_an_idle_pump_at_once(monkeypatch):
    # With a 5 s idle tick, a pump that napped between requests would hold
    # the first call for seconds; ``submit`` must cut the park short.
    monkeypatch.setattr(gateway, "_IDLE_TICK", 5.0)
    kernel, app = build_app()

    async def scenario():
        gw, host, port = await serve(app)
        try:
            await asyncio.sleep(0.05)  # let the pump park
            started = time.monotonic()
            status, body, _ = await request(
                host, port, "POST", "/actor/Echo/e/call/echo", {"args": ["hi"]}
            )
            assert (status, body) == (200, {"value": "hi"})
            assert time.monotonic() - started < 1.0
            assert gw.bridge.wakeups >= 1
        finally:
            await gw.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_sequential_calls_simulate_only_the_time_they_need():
    kernel, app = build_app()
    calls = 100

    async def scenario():
        gw, host, port = await serve(app)
        try:
            async with KeepAliveClient(host, port) as client:
                await client.request(
                    "POST", "/actor/Echo/e/call/echo", {"args": [0]}
                )
                before = gw.bridge.stats()
                now_before = kernel.now
                for n in range(calls):
                    status, body, _ = await client.request(
                        "POST", "/actor/Echo/e/call/echo", {"args": [n]}
                    )
                    assert (status, body) == (200, {"value": n})
                after = gw.bridge.stats()
                # A fixed 0.25 s busy slice per request is what this replaces.
                assert (kernel.now - now_before) / calls < 0.125
                assert after["sim_seconds"] - before["sim_seconds"] == (
                    pytest.approx(kernel.now - now_before)
                )
                assert after["settled"] - before["settled"] == calls

                # The same counters over HTTP and in the stats tree.
                status, body, _ = await client.request(
                    "GET", "/system/stats/gateway"
                )
                assert status == 200
                assert body["stats"]["bridge"].keys() == after.keys()
                assert body["stats"]["bridge"]["settled"] >= after["settled"]
                assert app.stats("gateway")["bridge"] == gw.bridge.stats()
        finally:
            await gw.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_concurrent_submissions_share_busy_slices():
    kernel, app = build_app()
    api = app.api("gateway")

    async def scenario():
        bridge = KernelBridge(kernel)
        bridge.start()
        try:
            process = api.endpoint().process
            futures = [
                bridge.submit(api.call("Echo", f"e{n}", "echo", (n,)), process)
                for n in range(32)
            ]
            assert await asyncio.gather(*futures) == list(range(32))
            assert bridge.settled == 32 and bridge.pending == 0
            # One loop turn per settlement is the cost the slice rule avoids.
            assert 1 <= bridge.slices < bridge.settled
        finally:
            await bridge.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_long_simulated_wait_still_yields_to_the_loop_every_slice():
    kernel = Kernel(seed=1)
    nap = 300.0

    async def scenario():
        bridge = KernelBridge(kernel)
        bridge.start()
        try:
            future = bridge.submit(kernel.sleep(nap))
            turns = 0
            while not future.done():
                await asyncio.sleep(0)
                turns += 1
            # Nothing settles for 300 simulated seconds, so every slice runs
            # to the bound -- and the loop gets a turn after each one.
            assert bridge.slices >= nap / gateway._SLICE_BOUND
            assert turns >= bridge.slices - 1
            assert bridge.sim_seconds == pytest.approx(kernel.now)
        finally:
            await bridge.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# teardown
# ----------------------------------------------------------------------


def test_stop_closes_idle_keep_alive_connections(caplog):
    kernel, app = build_app()

    async def scenario():
        gw, host, port = await serve(app)
        async with KeepAliveClient(host, port) as client:
            status, _, _ = await client.request("GET", "/system/health")
            assert status == 200
            # The handler is now parked reading the next request.
            started = time.monotonic()
            await asyncio.wait_for(gw.stop(), timeout=5.0)
            assert time.monotonic() - started < 1.0
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert await client.reader.read() == b""  # server closed it

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    kernel.check_no_crashes()


# ----------------------------------------------------------------------
# protocol-level rejections
# ----------------------------------------------------------------------


def test_malformed_requests_are_rejected():
    kernel, app = build_app()

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l/call/set", body=b"{nope"
            )
            assert (status, body["error"]["code"]) == (400, "bad_json")

            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l/call/set", {"args": "not-a-list"}
            )
            assert (status, body["error"]["code"]) == (400, "bad_request")

            status, body, _ = await request(host, port, "GET", "/no/such/route")
            assert (status, body["error"]["code"]) == (404, "unknown_route")

            status, body, _ = await request(
                host, port, "GET", "/system/stats/bogus"
            )
            assert (status, body["error"]["code"]) == (404, "unknown_family")

            status, body, _ = await request(
                host, port, "POST", "/actor/Latch/l/call/set",
                body=b"x" * (gateway.max_body + 1),
            )
            assert (status, body["error"]["code"]) == (413, "body_too_large")

            raw = await send_raw(host, port, b"GARBAGE\r\n\r\n")
            status, body, headers = parse_response(raw)
            assert (status, body["error"]["code"]) == (400, "bad_request")
            assert headers["connection"] == "close"
        finally:
            await gateway.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


# ----------------------------------------------------------------------
# error mapping
# ----------------------------------------------------------------------


def test_error_mapping_table():
    transient = BACKOFF.bound(1)
    cases = [
        (UnknownActorTypeError("Nope"), 404, "unknown_actor_type", None),
        (BreakerOpenError("T", "m", 2.5), 503, "breaker_open", 2.5),
        (NoPlacementError("nowhere"), 503, "no_placement", transient),
        (StaleRouteError("moved"), 503, "stale_route", transient),
        (FencedClientError("fenced"), 409, "fenced", None),
        (StaleLeaseError("stale"), 409, "fenced", None),
        (ActorMethodError("boom"), 500, "actor_error", None),
        (InvocationCancelled("gone"), 500, "invocation_cancelled", None),
        (TaskKilled("host"), 503, "component_lost", None),
        (KarError("generic"), 500, "kar_error", None),
        (ValueError("unmapped"), 500, "internal", None),
    ]
    for error, expected_status, expected_code, expected_retry in cases:
        status, code, message, retry_after = map_error(error)
        assert (status, code) == (expected_status, expected_code), error
        assert retry_after == expected_retry, error
        assert message  # the envelope always explains itself

    # Subclasses must precede their bases in the table, or the wrong row
    # would shadow them.
    for index, (exc_type, _, _) in enumerate(ERROR_STATUS):
        for later_type, _, _ in ERROR_STATUS[index + 1 :]:
            assert not issubclass(later_type, exc_type) or later_type is exc_type


def test_breaker_open_maps_to_503_with_retry_after_header(monkeypatch):
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 300.0)
    kernel, app = build_app(breaker_threshold=3)

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            # Three propagated application failures trip the breaker.
            for n in range(3):
                status, body, _ = await request(
                    host, port, "POST", "/actor/Echo/e/call/fail_with",
                    {"args": [f"boom{n}"]},
                )
                assert (status, body["error"]["code"]) == (500, "actor_error")

            status, body, headers = await request(
                host, port, "POST", "/actor/Echo/e/call/fail_with", {"args": ["x"]}
            )
            assert (status, body["error"]["code"]) == (503, "breaker_open")
            assert int(headers["retry-after"]) >= 1

            # Admission is per (actor type, method): other methods still run.
            status, body, _ = await request(
                host, port, "POST", "/actor/Echo/e/call/echo", {"args": ["ok"]}
            )
            assert (status, body) == (200, {"value": "ok"})

            # Nothing parked: the open breaker rejected at the edge instead
            # of diverting an unsettleable call to the dead-letter lot.
            assert app.stats("overload")["dead_letter_depth"] == 0
        finally:
            await gateway.stop()

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_unknown_actor_type_is_rejected_at_admission():
    kernel, app = build_app()

    async def scenario():
        gateway, host, port = await serve(app)
        try:
            status, body, _ = await request(
                host, port, "POST", "/actor/Ghost/g/call/get"
            )
            assert (status, body["error"]["code"]) == (404, "unknown_actor_type")
        finally:
            await gateway.stop()

    asyncio.run(scenario())
    # The typo never reached the runtime: no placement entry was minted.
    assert app.store.backend.get("placement:Ghost:g") is None


# ----------------------------------------------------------------------
# the unified stats() redesign
# ----------------------------------------------------------------------


def test_stats_tree_rejects_unknown_family():
    kernel, app = build_app()
    with pytest.raises(KeyError):
        app.stats("nope")


# ----------------------------------------------------------------------
# the protocol edge: timeouts, framing, no tasks
# ----------------------------------------------------------------------


class Sleeper(Actor):
    async def nap(self, ctx):
        await ctx.sleep(1e9)  # ~4e9 busy slices: never settles in a test


def test_call_past_sync_timeout_answers_504_and_keeps_the_connection(caplog):
    kernel, app = build_app(actor_classes=(Sleeper,))

    async def scenario():
        gw = KarGateway(app, port=0, sync_timeout=0.2)
        host, port = await gw.start()
        async with KeepAliveClient(host, port) as client:
            started = time.monotonic()
            status, body, _ = await client.request("POST", "/actor/Sleeper/s/call/nap")
            assert (status, body["error"]["code"]) == (504, "timeout")
            assert time.monotonic() - started < 1.0
            status, _, _ = await client.request("GET", "/system/health")
            assert status == 200
            # The call still runs in the kernel; stop does not wait for it.
            assert gw.bridge.pending == 1
            started = time.monotonic()
            await asyncio.wait_for(gw.stop(), timeout=5.0)
            assert time.monotonic() - started < 1.0
            assert gw.bridge.pending == 1

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    kernel.check_no_crashes()


def test_killed_operation_settles_after_its_future_was_answered():
    # A 504 answers the future while the call runs on; when the gateway's
    # process is then killed the bridge must still count it settled, or its
    # pump would run busy slices for ever.
    kernel, app = build_app(actor_classes=(Sleeper,))
    api = app.api("gateway")

    async def scenario():
        bridge = KernelBridge(kernel)
        bridge.start()
        try:
            future = bridge.submit(
                api.call("Sleeper", "s", "nap"), api.endpoint().process
            )
            future.set_exception(asyncio.TimeoutError())
            assert isinstance(future.exception(), asyncio.TimeoutError)
            await asyncio.sleep(0.01)
            app.kill_component("gateway")
            deadline = time.monotonic() + 5.0
            while bridge.pending:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.001)
            assert bridge.settled == 1
        finally:
            await bridge.stop()

    asyncio.run(scenario())


def _echo_request(value, connection="keep-alive"):
    body = json.dumps({"args": [value]}).encode()
    head = (
        f"POST /actor/Echo/e/call/echo HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n\r\n"
    )
    return head.encode() + body


_OVERSIZED = 256 * 1024
FRAMINGS = {
    "two_requests_in_one_write": (
        [_echo_request("one") + _echo_request("two", "close")],
        False,
        [(200, "one"), (200, "two")],
    ),
    "one_byte_at_a_time": (
        [bytes([byte]) for byte in _echo_request("hi", "close")],
        False,
        [(200, "hi")],
    ),
    "oversized_body_in_chunks": (
        [
            b"POST /actor/Echo/e/call/echo HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {_OVERSIZED}\r\n\r\n".encode()
        ]
        + [b"x" * 4096] * (_OVERSIZED // 4096),
        False,
        [(413, "body_too_large")],
    ),
    "eof_in_mid_head": (
        [b"GET /system/health HTTP/1.1\r\nHost: t\r\n"],
        True,
        [(400, "bad_request")],
    ),
}


@pytest.mark.parametrize("case", sorted(FRAMINGS))
def test_wire_framing_over_one_buffer(case):
    chunks, half_close, expected = FRAMINGS[case]
    kernel, app = build_app()

    async def scenario():
        gw = KarGateway(app, port=0, max_body=1024)
        host, port = await gw.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0)  # the gateway reads each chunk apart
            if half_close:
                writer.write_eof()
            data = await reader.read()  # to EOF: a reset would raise here
            writer.close()
            await writer.wait_closed()
        finally:
            await gw.stop()
        answers = []
        while data:
            head, _, rest = data.partition(b"\r\n\r\n")
            status, _, headers = parse_response(head)
            length = int(headers["content-length"])
            body = json.loads(rest[:length])
            answers.append(
                (status, body["value"] if status == 200 else body["error"]["code"])
            )
            data = rest[length:]
        assert answers == expected
        assert headers["connection"] == "close"

    asyncio.run(scenario())
    kernel.check_no_crashes()


def test_the_edge_creates_no_asyncio_task():
    # Connections are protocols, replies come from done-callbacks and the
    # pump is a chain of loop callbacks: no coroutine of ``repro.net`` is
    # ever wrapped in a task, however many requests are served.
    kernel, app = build_app()
    modules = []

    def factory(loop, coro, **kwargs):
        modules.append(coro.cr_frame.f_globals["__name__"])
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def lane(host, port, index):
        async with KeepAliveClient(host, port) as client:
            for n in range(50):
                status, body, _ = await client.request(
                    "POST", f"/actor/Echo/e{index}/call/echo", {"args": [n]}
                )
                assert (status, body) == (200, {"value": n})

    async def scenario():
        asyncio.get_running_loop().set_task_factory(factory)
        gw, host, port = await serve(app)
        try:
            await asyncio.gather(lane(host, port, 0), lane(host, port, 1))
            status, _, _ = await request(host, port, "GET", "/system/health")
            assert status == 200
            status, _, _ = await request(host, port, "GET", "/actor/Echo/e0/state")
            assert status == 200
        finally:
            await gw.stop()
        assert gw.bridge.settled == 101

    asyncio.run(scenario())
    assert __name__ in modules  # the factory saw the lanes
    assert [name for name in modules if name.startswith("repro.net")] == []


def test_stop_with_half_a_request_head_buffered(caplog):
    kernel, app = build_app()

    async def scenario():
        gw, host, port = await serve(app)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /system/health HTTP/1.1\r\nHo")
        await writer.drain()
        deadline = time.monotonic() + 5.0
        while not any(c.buffer for c in gw._connections):
            assert time.monotonic() < deadline
            await asyncio.sleep(0.001)
        started = time.monotonic()
        await asyncio.wait_for(gw.stop(), timeout=5.0)
        assert time.monotonic() - started < 1.0
        assert asyncio.all_tasks() == {asyncio.current_task()}
        assert await reader.read() == b""  # closed, with nothing to answer
        writer.close()
        await writer.wait_closed()

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    kernel.check_no_crashes()
