"""Actor-churn benchmark: bounded memory under a sea of distinct actor ids.

The paper assumes components can host "as many actors as the application
names"; the ROADMAP's north star is millions of users. This workload names
100k distinct actors (1M with ``REPRO_SCALE=full``) against a single
component with idle passivation enabled and asserts the runtime's resident
footprint -- instances, mailboxes, state caches, and dedup evidence -- stays
bounded by the *working set* (arrival rate x idle window) instead of
growing monotonically with every actor ever touched.

A second phase measures the batched state I/O: ``set_multiple`` of N fields
must cost one store round trip (one ``hset_many``) instead of N.
"""

from __future__ import annotations

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.mq import BrokerConfig
from repro.sim import Kernel, Latency
from repro.bench import render_table

from _shared import FULL, emit

ACTOR_COUNT = 1_000_000 if FULL else 100_000
SAMPLES = 20
BATCH_FIELDS = 16


class ChurnActor(Actor):
    """Touched once, persists a field, then goes idle forever."""

    async def activate(self, ctx):
        self.seq = await ctx.state.get("seq")

    async def deactivate(self, ctx):
        await ctx.state.set_multiple({"seq": self.seq})

    async def touch(self, ctx, seq):
        self.seq = seq


class BatchActor(Actor):
    async def write_one_by_one(self, ctx, updates):
        for field, value in updates.items():
            await ctx.state.set(field, value)

    async def write_batched(self, ctx, updates):
        await ctx.state.set_multiple(updates)


def churn_config() -> KarConfig:
    return KarConfig.fast_test().with_overrides(
        broker=BrokerConfig(
            produce_latency=Latency.fixed(0.001),
            consume_latency=Latency.fixed(0.0005),
            heartbeat_interval=0.3,
            session_timeout=2.0,
            watchdog_interval=0.25,
            rebalance_join_window=0.2,
            rebalance_sync_latency=Latency.around(0.05, 0.02),
            retention_seconds=20.0,
        ),
        idle_passivation_timeout=2.0,
    )


def run_churn():
    kernel = Kernel(seed=7)
    app = KarApplication(kernel, churn_config())
    app.trace.enabled = False  # bound host memory over millions of events
    app.register_actor(ChurnActor)
    worker = app.add_component("w1", ("ChurnActor",))
    client = app.client()
    app.settle()

    samples: list[tuple[int, int, int, int, int]] = []

    def sample(issued: int) -> None:
        samples.append(
            (
                issued,
                len(worker._instances),
                len(worker._mailboxes),
                len(worker._handled),
                # Tells self-acknowledge into the executing component's own
                # queue, so the settled evidence accrues on the worker.
                len(worker._settled),
            )
        )

    async def drive():
        step = max(ACTOR_COUNT // SAMPLES, 1)
        for index in range(ACTOR_COUNT):
            ref = actor_proxy("ChurnActor", f"c{index}")
            await client.invoke(None, ref, "touch", (index,), False)
            if (index + 1) % step == 0:
                sample(index + 1)

    task = kernel.spawn(drive(), client.process, name="churn-driver")
    kernel.run_until_complete(task, timeout=None)
    # Drain: let in-flight executions finish and idle actors passivate.
    deadline = kernel.now + 120.0
    while worker._instances and kernel.now < deadline:
        kernel.run(until=kernel.now + 1.0)
    kernel.run(until=kernel.now + 30.0)  # dedup horizon passes
    sample(ACTOR_COUNT)
    return app, worker, client, samples


def test_lifecycle_churn_bounded_memory(benchmark):
    app, worker, client, samples = benchmark.pedantic(
        run_churn, rounds=1, iterations=1
    )

    emit(
        "lifecycle_churn.txt",
        render_table(
            ["issued", "instances", "mailboxes", "handled", "settled"],
            samples,
            title=(
                f"Lifecycle churn: {ACTOR_COUNT} distinct actors, idle "
                "timeout 2s (resident counts per progress sample)"
            ),
        ),
    )

    peak_instances = max(row[1] for row in samples)
    peak_mailboxes = max(row[2] for row in samples)
    peak_handled = max(row[3] for row in samples)
    peak_settled = max(row[4] for row in samples)
    benchmark.extra_info["peak_instances"] = peak_instances
    benchmark.extra_info["peak_handled"] = peak_handled
    benchmark.extra_info["passivations"] = worker.passivations

    # Bounded: the peak resident footprint is a small fraction of the
    # actors ever named -- the working set, not the lifetime history.
    assert peak_instances < ACTOR_COUNT * 0.05
    assert peak_mailboxes < ACTOR_COUNT * 0.05
    assert peak_handled < ACTOR_COUNT * 0.25
    assert peak_settled < ACTOR_COUNT * 0.25

    # Flat, not monotonically growing: the later half of the run must not
    # sit above the steady state the first half established.
    mid = len(samples) // 2
    early_peak = max(row[1] for row in samples[:mid])
    late_peak = max(row[1] for row in samples[mid:])
    assert late_peak <= early_peak * 1.5 + 50

    # Everything passivated and swept once the workload drained.
    final = samples[-1]
    assert final[1] == 0 and final[2] == 0
    assert worker.passivations >= ACTOR_COUNT  # every actor evicted
    assert worker._handled.swept_total > 0
    assert worker._settled.swept_total > 0


def test_set_multiple_single_round_trip(benchmark):
    def run():
        kernel = Kernel(seed=11)
        app = KarApplication(kernel, KarConfig.fast_test())
        app.register_actor(BatchActor)
        app.add_component("w1", ("BatchActor",))
        app.client()
        app.settle()
        ref = actor_proxy("BatchActor", "b")
        updates = {f"f{i}": i for i in range(BATCH_FIELDS)}

        app.run_call(ref, "write_batched", {"warm": 0})  # place + activate
        before_ops = app.store.operation_count
        start = kernel.now
        app.run_call(ref, "write_one_by_one", updates)
        loop_ops = app.store.operation_count - before_ops
        loop_latency = kernel.now - start

        before_ops = app.store.operation_count
        start = kernel.now
        app.run_call(ref, "write_batched", updates)
        batched_ops = app.store.operation_count - before_ops
        batched_latency = kernel.now - start
        return loop_ops, loop_latency, batched_ops, batched_latency

    loop_ops, loop_latency, batched_ops, batched_latency = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "lifecycle_batched_state.txt",
        render_table(
            ["variant", "store ops", "latency (ms)"],
            [
                ("set x N", loop_ops, loop_latency * 1000),
                ("set_multiple", batched_ops, batched_latency * 1000),
            ],
            title=f"State write of {BATCH_FIELDS} fields: per-field vs batched",
            digits=3,
        ),
    )
    benchmark.extra_info["batched_ops"] = batched_ops
    assert loop_ops == BATCH_FIELDS
    assert batched_ops == 1  # one RTT regardless of field count
    # End-to-end invocation latency includes a fixed floor (sidecar hops,
    # produce round trip), so the 16x RTT reduction shows as >2x overall.
    assert batched_latency < loop_latency / 2
