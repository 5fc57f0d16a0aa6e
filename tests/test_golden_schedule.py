"""Golden schedule: a change may get faster, never reorder by accident.

One seeded workflow -- nested calls, a tail-call chain across components and
a component killed mid-flight -- runs on the memory and on the sqlite+journal
backends. The SHA-256 of its whole trace, the final simulated time and the
next draw of ``kernel.rng`` must equal the constants below. Any change to the
``(when, seq)`` execution order, to an ``rng`` draw or to a timestamp moves at
least one of the three, so an order-preserving change leaves them alone and
a deliberate schedule change re-captures them and says why the new order is
a legal one (``PYTHONPATH=src python tests/test_golden_schedule.py memory
/tmp/g``).

History of the constants. 6826319 (the last kernel that kept every event in
one heap) through e47d23a: ``14da509f...`` / ``620d8710...``; the two-queue
kernel of PR 15 reproduced them bit for bit. PR 16 re-captured them once, on
purpose: consumers long-poll (a parked consumer starts no fetch, so a record
appended while the old loop was mid-way through an empty fetch is delivered
a fraction of ``consume_latency`` later), and ``Component.invoke`` draws the
hop and the overhead latency at one point and sleeps their sum (same total,
but the second draw now precedes whatever other tasks drew in between).
Timestamps and the assignment of ``rng`` draws to tasks move; what runs, how
often and with what outcome does not (CHANGES.md, PR 16, has the evidence).
Through PR 17 there was one constant per ``PYTHONHASHSEED`` (``c23007fe...``
under 0, ``4077813e...`` under 1): ``Broker.produce_batch`` woke the consumers
parked on one batch's partitions by walking a ``set`` of partition names. PR
18 re-captured once more, on purpose: they wake in the order the partitions
first appear in the batch. The order among consumers woken by one append at
one instant was never specified, so every order the old walk produced was
legal and so is this one; it is the first that does not move with the seed.

Each case runs in a subprocess, under ``PYTHONHASHSEED`` 0, 1, 3 and
``random`` on both backends (the simulated latencies are the same), and all
eight must equal the one constant.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel, Latency

#: (trace SHA-256, final ``kernel.now``, next ``rng.random()``).
GOLDEN = (
    "49e050e19f4f9d52f60f421dc3172cfb03353d846fad2fc4c0c3e72d08821ece",
    "7.29318185596742",
    "0.9135151722699717",
)


class Flow(Actor):
    """A root workflow: a tail-call chain hopping between Flow and Tally."""

    async def start(self, ctx, wid, hops):
        return ctx.tail_call(actor_proxy("Tally", f"t{wid % 3}"), "add", wid, hops)


class Tally(Actor):
    async def add(self, ctx, wid, hops):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", wid, hops, total + 1)

    async def commit(self, ctx, wid, hops, new_total):
        await ctx.state.set_multiple({"total": new_total, f"done:{wid}": True})
        if hops > 1:
            return ctx.tail_call(actor_proxy("Flow", f"f{wid}"), "start", wid, hops - 1)
        return "done"

    async def report(self, ctx):
        return await ctx.state.get("total", 0)


class Auditor(Actor):
    """Nested calls: runs two workflows, then reads every tally."""

    async def audit(self, ctx, wid):
        await ctx.call(actor_proxy("Flow", f"f{wid}"), "start", wid, 2)
        await ctx.tell(actor_proxy("Flow", f"f{wid + 100}"), "start", wid + 100, 1)
        totals = []
        for index in range(3):
            totals.append(await ctx.call(actor_proxy("Tally", f"t{index}"), "report"))
        return totals


def run_workflow(mode: str, root: str) -> tuple[str, str, str]:
    persistence = (
        PersistenceConfig.sqlite(root) if mode == "sqlite" else PersistenceConfig()
    )
    # Jittered hops: every sidecar hop and store access draws from
    # ``kernel.rng``, so a reordered draw shifts every later timestamp.
    config = KarConfig.fast_test().with_overrides(
        persistence=persistence,
        sidecar_latency=Latency.around(0.0002, 0.0001),
        store_latency=Latency.around(0.0005, 0.0002),
        invoke_overhead=Latency.around(0.0002, 0.0001),
    )
    kernel = Kernel(seed=1503)
    app = KarApplication.fresh(kernel, config, name="golden")
    types = tuple(app.register_actor(cls) for cls in (Flow, Tally, Auditor))
    for name in ("w1", "w2", "w3"):
        app.add_component(name, types)
    client = app.client()
    app.settle()

    tasks = [
        kernel.spawn(
            client.invoke(None, actor_proxy("Auditor", f"a{wid}"), "audit", (wid,), True),
            client.process,
            name=f"audit{wid}",
        )
        for wid in range(6)
    ]
    kernel.run(until=kernel.now + 0.03)
    assert app.stats("calls")["unsettled"]  # the kill interrupts real work
    app.kill_component("w2")
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=600.0)
    app.restart_component("w2")
    app.settle()
    results.append(app.run_call(actor_proxy("Auditor", "a0"), "audit", 50))
    kernel.run(until=kernel.now + 5.0)
    kernel.check_no_crashes()
    assert app.stats("calls")["unsettled"] == []

    digest = hashlib.sha256()
    for event in app.trace:
        digest.update(repr((event.time, event.kind, sorted(event.fields.items()))).encode())
    digest.update(repr(results).encode())
    app.shutdown()
    return digest.hexdigest(), repr(kernel.now), repr(kernel.rng.random())


@pytest.mark.parametrize("hashseed", ["0", "1", "3", "random"])
@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_schedule_equals_the_golden_constants(mode, hashseed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(sys.path))
    output = subprocess.run(
        [sys.executable, __file__, mode, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert tuple(output.split()) == GOLDEN


if __name__ == "__main__":
    print(*run_workflow(sys.argv[1], sys.argv[2]))
