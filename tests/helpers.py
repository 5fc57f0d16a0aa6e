"""Shared fixtures: a fast-config application factory and sample actors."""

from __future__ import annotations

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.kvstore import KVStore
from repro.sim import Kernel, Latency


def make_app(seed: int = 0, config: KarConfig | None = None, **overrides):
    """Build an application on a fresh kernel with fast test timings."""
    kernel = Kernel(seed=seed)
    cfg = config or KarConfig.fast_test()
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    app = KarApplication(kernel, cfg)
    return kernel, app


def run(kernel, coro, process=None, timeout: float | None = 300.0):
    task = kernel.spawn(coro, process=process)
    return kernel.run_until_complete(task, timeout=timeout)


def append(partition, value, timestamp: float) -> int:
    """Append ``value`` to a broker partition straight through its log,
    stamped ``timestamp`` (or its newest record's, if later); the offset."""
    topic = partition.topic
    (offset,) = topic.broker.log.append_many(
        topic.name, [(partition.name, value)], timestamp
    )
    return offset


def unexpired_in_order(topic, now: float) -> list:
    """Every unexpired record of ``topic``, ordered by
    ``(timestamp, partition, offset)``."""
    records = [
        record
        for partition in topic.partitions.values()
        for record in partition.unexpired(now)
    ]
    return sorted(records, key=lambda r: (r.timestamp, r.partition, r.offset))


class Latch(Actor):
    """The paper's introductory example (Section 2): volatile state."""

    async def activate(self, ctx):
        self.v = 0

    async def set(self, ctx, v):
        self.v = v

    async def get(self, ctx):
        return self.v


class PersistentLatch(Actor):
    """Section 2.1: activate restores persisted state after failures."""

    async def activate(self, ctx):
        self.v = await ctx.state.get("v", 0)

    async def set(self, ctx, v):
        self.v = v
        await ctx.state.set("v", self.v)

    async def get(self, ctx):
        return self.v


class Accumulator(Actor):
    """Section 2.3: reliable increment over a get/set external store.

    The tail call from ``incr`` to ``set_value`` makes the transition atomic:
    a failure interrupts at most one of the two, and the read value is cached
    as an invocation parameter, so the increment lands exactly once.
    """

    #: Injected by tests: the external store (a KVStore).
    store: KVStore = None

    async def get(self, ctx):
        return await ctx.external(Accumulator.store).get("key")

    async def set_value(self, ctx, value):
        await ctx.external(Accumulator.store).set("key", value)
        return "OK"

    async def incr(self, ctx):
        value = await ctx.external(Accumulator.store).get("key") or 0
        return ctx.tail_call(None, "set_value", value + 1)

    async def incr_unsafe(self, ctx):
        """The paper's first incorrect variant: read+write in one method --
        a failure between the store write and the return double-increments."""
        client = ctx.external(Accumulator.store)
        value = await client.get("key") or 0
        await client.set("key", value + 1)
        return "OK"


class Echo(Actor):
    async def echo(self, ctx, payload):
        return payload

    async def fail_with(self, ctx, message):
        raise ValueError(message)


class Counter(Actor):
    """Persistent accumulator with read-then-tail-write commit discipline."""

    async def bump(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, total):
        await ctx.state.set("total", total)
        return total

    async def get(self, ctx):
        return await ctx.state.get("total", 0)


class Flow(Actor):
    """A root workflow that fans a tail-call chain across Tally actors."""

    async def start(self, ctx, wid, hops):
        target = actor_proxy("Tally", f"t{wid % 3}")
        return ctx.tail_call(target, "add", wid, hops)


class Tally(Actor):
    """Exactly-once counting via the read-then-tail-write discipline."""

    async def add(self, ctx, wid, hops):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", wid, hops, total + 1)

    async def commit(self, ctx, wid, hops, new_total):
        await ctx.state.set_multiple({"total": new_total, f"done:{wid}": True})
        if hops > 1:
            flow = actor_proxy("Flow", f"f{wid}")
            return ctx.tail_call(flow, "start", wid, hops - 1)
        return "done"

    async def report(self, ctx):
        return await ctx.state.get("total", 0)


def two_component_app(seed=0, actor_classes=(Latch,), **overrides):
    """App with two worker components hosting all given actor types."""
    kernel, app = make_app(seed, **overrides)
    names = []
    for actor_class in actor_classes:
        names.append(app.register_actor(actor_class))
    app.add_component("w1", tuple(names))
    app.add_component("w2", tuple(names))
    app.client()
    app.settle()
    return kernel, app


__all__ = [
    "Accumulator",
    "Counter",
    "Echo",
    "Flow",
    "Latch",
    "PersistentLatch",
    "Tally",
    "actor_proxy",
    "make_app",
    "run",
    "two_component_app",
    "unexpired_in_order",
]
