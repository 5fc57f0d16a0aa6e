"""Python calls per operation, by package: an exact cost ledger.

Wall-clock timing on a shared machine swings by tens of percent between
runs; the number of Python calls an operation makes does not. Under
``sys.setprofile`` every Python frame entered -- a function called, or a
coroutine or generator resumed -- is one ``call`` event. The probe files
each under the package of ``src/repro`` its code lives in (``sim``, ``mq``,
``core``, ``kvstore``, ``persist``, ``net``), or as other Python (the
standard library, this driver), and counts the ``c_call`` events of
builtins beside them. Methods a ``dataclass`` generates, and the
``__init__`` that :func:`repro.persist.valuetypes.slot_init` generates,
are compiled from a string: their code lives in ``<string>``, so they count
as other Python, not under the package that declares the class.

Four small seeded drivers cover the four benchmark workloads' paths:

``echo``     one serial ``Echo.echo`` call, in process, memory backends;
``ledger``   the durable read-then-tail-write (``Ledger.add`` reads, its tail
             call ``commit`` writes), sqlite store and file journal, eight
             callers at once;
``gateway``  one ``Echo.echo`` over HTTP on a keep-alive loopback
             connection: parse, one ``KernelBridge.submit``, the call, the
             reply;
``recover``  one crash-and-``reopen()`` cycle: reopen the journal and the
             store, redeploy, settle every call in flight at the crash.

Each driver sets up and warms up outside the count, collects garbage, and
counts only its operations, with the cyclic collector off so no finaliser
runs inside the count. The kernel is seeded and the gateway's idle tick
(which advances simulated time on a wall-clock timer) is held off while
counting, so every count is the same on every run.

``PYTHONPATH=src python tests/cost_probe.py`` prints the table.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import repro
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.net import KarGateway, gateway
from repro.persist import PersistenceConfig
from repro.sim import Kernel

__all__ = ["DRIVERS", "PACKAGES", "Cost", "probe"]

#: The packages of ``src/repro`` a count is split into, in print order.
PACKAGES = ("sim", "mq", "core", "kvstore", "persist", "net")
OTHER = "other"
C_CALLS = "C"
_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@dataclass(frozen=True)
class Cost:
    """Calls per operation: ``packages`` maps a ``src/repro`` package to
    its Python calls; ``other`` and ``c`` are information only."""

    ops: int
    packages: dict[str, float]
    other: float
    c: float

    @property
    def total(self) -> float:
        """Python calls per operation whose code lives under ``src/repro``."""
        return sum(self.packages.values())


class _Profile:
    """The ``sys.setprofile`` hook and its tally, for one counted section."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._where: dict[str, str] = {}

    def _package(self, filename: str) -> str:
        package = self._where.get(filename)
        if package is None:
            if filename.startswith(_ROOT):
                package = filename[len(_ROOT) :].split(os.sep)[0]
            else:
                package = OTHER
            self._where[filename] = package
        return package

    def _hook(self, frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            self.counts[self._package(frame.f_code.co_filename)] += 1
        elif event == "c_call":
            self.counts[C_CALLS] += 1

    def start(self) -> None:
        gc.collect()
        gc.disable()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        gc.enable()

    def cost(self, ops: int) -> Cost:
        """The tally as calls per operation over ``ops`` operations."""
        counts = self.counts
        packages = {
            name: counts[name] / ops
            for name in sorted(counts, key=_order)
            if name not in (OTHER, C_CALLS)
        }
        return Cost(ops, packages, counts[OTHER] / ops, counts[C_CALLS] / ops)

    def count(self, operations: Callable[[], int]) -> Cost:
        """Run ``operations`` (which returns how many it ran), counted."""
        self.start()
        try:
            ops = operations()
        finally:
            self.stop()
        return self.cost(ops)


def _order(name: str) -> tuple[int, str]:
    return (PACKAGES.index(name) if name in PACKAGES else len(PACKAGES), name)


# ----------------------------------------------------------------------
# actors
# ----------------------------------------------------------------------
class Echo(Actor):
    async def echo(self, ctx, value):
        return value


class Ledger(Actor):
    """Read, then tail-call the write: the durable workloads' call."""

    async def add(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, total):
        await ctx.state.set_multiple({"total": total, "last": total})
        return total


def _app(seed: int, actors: dict[str, type], root: str | None = None) -> Any:
    config = KarConfig.fast_test()
    if root is not None:
        config = config.with_overrides(persistence=PersistenceConfig.sqlite(root))
    app = KarApplication.fresh(Kernel(seed=seed), config, name="probe")
    app.trace.enabled = False
    for name, actor_class in actors.items():
        app.register_actor(actor_class, name=name)
    _deploy(app, tuple(actors))
    return app


def _deploy(app: Any, actor_types: tuple[str, ...]) -> None:
    for index in range(2):
        app.add_component(f"w{index}", actor_types)
    app.client()
    app.settle()


def _calls(app: Any, method: str, args: tuple, keys: list[str], lanes: int) -> int:
    """Call ``method`` once per ``Echo`` or ``Ledger`` key (the app hosts one
    of the two), ``lanes`` callers at a time; return the count."""
    kernel, client = app.kernel, app.client()
    actor_type = "Echo" if method == "echo" else "Ledger"

    async def lane(mine: list[str]) -> None:
        for key in mine:
            await client.invoke(None, actor_proxy(actor_type, key), method, args)

    kernel.run_until_complete(
        kernel.gather(
            kernel.spawn(lane(keys[index::lanes]), client.process)
            for index in range(lanes)
        )
    )
    return len(keys)


# ----------------------------------------------------------------------
# the four drivers
# ----------------------------------------------------------------------
def echo(calls: int = 200) -> Cost:
    app = _app(21, {"Echo": Echo})
    keys = [f"e{index % 8}" for index in range(calls)]
    _calls(app, "echo", ("x",), keys[:16], 1)
    cost = _Profile().count(lambda: _calls(app, "echo", ("x",), keys, 1))
    app.shutdown()
    return cost


def ledger(calls: int = 128) -> Cost:
    with tempfile.TemporaryDirectory() as root:
        app = _app(21, {"Ledger": Ledger}, root)
        keys = [f"a{(index * 7) % 32}" for index in range(calls)]
        _calls(app, "add", (1,), keys[:32], 8)
        cost = _Profile().count(lambda: _calls(app, "add", (1,), keys, 8))
        app.shutdown()
    return cost


async def _http(requests: int) -> Cost:
    app = _app(21, {"Echo": Echo})
    edge = KarGateway(app, port=0)
    host, port = await edge.start()
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps({"args": ["x"]}).encode()

    async def exchange(index: int) -> None:
        writer.write(
            f"POST /actor/Echo/e{index % 8}/call/echo HTTP/1.1\r\n"
            f"Host: p\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        )
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), head
        length = head.lower().split(b"content-length:")[1].split(b"\r\n")[0]
        assert json.loads(await reader.readexactly(int(length))) == {"value": "x"}

    for index in range(16):
        await exchange(index)
    profile = _Profile()
    profile.start()
    try:
        for index in range(requests):
            await exchange(index)
    finally:
        profile.stop()
    writer.close()
    await writer.wait_closed()
    await edge.stop()
    app.shutdown()
    return profile.cost(requests)


def http(requests: int = 50) -> Cost:
    # The idle tick advances simulated time on a wall-clock timer; held off,
    # the kernel runs only inside the busy slices the requests cause.
    idle_tick = gateway._IDLE_TICK
    gateway._IDLE_TICK = 3600.0
    try:
        return asyncio.run(_http(requests))
    finally:
        gateway._IDLE_TICK = idle_tick


def recover(in_flight: int = 24) -> Cost:
    with tempfile.TemporaryDirectory() as root:
        app = _app(21, {"Ledger": Ledger}, root)
        _calls(app, "add", (1,), [f"a{index}" for index in range(64)], 8)
        kernel, client = app.kernel, app.client()
        for index in range(in_flight):
            ref = actor_proxy("Ledger", f"a{index}")
            kernel.spawn(client.invoke(None, ref, "add", (1,)), client.process)
        kernel.run(until=kernel.now + 0.005)
        crashed = app.stats("calls")["unsettled_count"]
        assert crashed, "the crash interrupted nothing"
        app.shutdown()

        def cycle() -> int:
            recovered = app.reopen()
            _deploy(recovered, ("Ledger",))
            while recovered.stats("calls")["unsettled_count"]:
                kernel.run(until=kernel.now + 0.5)
            recovered.shutdown()
            return 1

        return _Profile().count(cycle)


DRIVERS: dict[str, Callable[[], Cost]] = {
    "echo": echo,
    "ledger": ledger,
    "gateway": http,
    "recover": recover,
}


def probe(name: str) -> Cost:
    """The calls per operation of one driver."""
    return DRIVERS[name]()


def table(costs: dict[str, Cost]) -> str:
    """The per-package table ``python tests/cost_probe.py`` prints."""
    seen = {name for cost in costs.values() for name in cost.packages}
    packages = [name for name in PACKAGES if name in seen]
    packages += sorted(seen - set(PACKAGES))
    head = ["driver", "ops", "src/repro", *packages, "other Python", "C calls"]
    rows = [head]
    for name, cost in costs.items():
        rows.append(
            [name, str(cost.ops), f"{cost.total:.1f}"]
            + [f"{cost.packages.get(package, 0.0):.1f}" for package in packages]
            + [f"{cost.other:.1f}", f"{cost.c:.1f}"]
        )
    widths = [max(len(row[index]) for row in rows) for index in range(len(head))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in rows
    )


if __name__ == "__main__":
    print(f"Python calls per operation, Python {sys.version.split()[0]}")
    print(table({name: probe(name) for name in DRIVERS}))
