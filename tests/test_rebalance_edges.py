"""Rebalance edge cases for the scale-out handoff protocol.

The corners the multi-worker refactor must not bend:

- a partition handed off *while a retry sits parked* (happen-before parking
  or backoff re-queue) still settles every call exactly once;
- a generation bump racing a batched produce rejects the stale-epoch batch
  whole -- no partial batch from a superseded incarnation ever lands;
- a worker leaving gracefully and a worker crashing produce identical
  settled sets (the only difference is who pays: drain vs. reconciliation);
- adaptive placement actions (split, migrate) fired *mid-burst* under
  zipfian skew preserve exactly-once on both store backends;
- a migration whose chosen target dies during the drain lands the
  component on a live worker instead of restarting it on a corpse.
"""

from __future__ import annotations

import pytest

from repro.core import Actor, KarApplication, KarConfig, actor_proxy, placement_ctl
from repro.mq import (
    Broker,
    BrokerConfig,
    FencedMemberError,
    StaleLeaseError,
)
from repro.persist import PersistenceConfig
from repro.sim import Kernel

from helpers import Counter
from oracle import check_guarantee


class Relay(Actor):
    """Nested caller: recovery copies of its retries park on the callee."""

    async def forward(self, ctx, cid, amount):
        return await ctx.call(actor_proxy("Counter", cid), "bump", amount)


class SlowCallee(Actor):
    """Long-running callee: keeps the happen-before window open so a
    caller retry reliably parks while this executes."""

    runs = 0

    async def task(self, ctx, v):
        SlowCallee.runs += 1
        await ctx.sleep(6.0)
        return v + 1


class ParkCaller(Actor):
    async def main(self, ctx, v):
        return await ctx.call(actor_proxy("SlowCallee", "c"), "task", v)


def make_cluster(seed=0, workers=2, components=4, **overrides):
    kernel = Kernel(seed=seed)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.002, **overrides
    )
    app = KarApplication(kernel, config, "edges", workers=workers)
    app.register_actor(Counter, "Counter")
    app.register_actor(Relay, "Relay")
    for index in range(components):
        app.add_component(f"comp{index}", ("Counter", "Relay"))
    app.client()
    app.settle()
    return kernel, app


# ----------------------------------------------------------------------
# handoff while retries are parked
# ----------------------------------------------------------------------
def test_handoff_while_retry_parked_settles_exactly_once():
    SlowCallee.runs = 0
    kernel = Kernel(seed=5)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.002, cancellation=False
    )
    app = KarApplication(kernel, config, "edges", workers=3)
    app.register_actor(SlowCallee, "SlowCallee")
    app.register_actor(ParkCaller, "ParkCaller")
    app.add_component("callers", ("ParkCaller",))
    app.add_component("callees", ("SlowCallee",))
    client = app.client()
    app.settle()

    ref = actor_proxy("ParkCaller", "a")
    task = kernel.spawn(
        client.invoke(None, ref, "main", (1,), True), process=client.process
    )
    kernel.run(until=kernel.now + 2.0)  # the callee is mid-sleep
    assert SlowCallee.runs == 1
    # Crash the caller's worker: reconciliation copies the stranded "main"
    # retry annotated after_callee -- it parks on the re-hosted partition
    # waiting for the slow callee's response.
    app.control.kill_worker(app.control.worker_of("callers"))
    kernel.run(until=kernel.now + 2.2)  # recovery done; retry parked
    assert app.trace.count("request.parked") >= 1
    assert app.trace.count("request.unparked") == 0
    # Hand the partition off AGAIN while the retry sits parked: the parked
    # copy dies with this incarnation and reconciliation re-copies it.
    app.control.kill_worker(app.control.worker_of("callers"))
    assert kernel.run_until_complete(task, timeout=300.0) == 2
    kernel.run(until=kernel.now + 5.0)
    assert app.trace.count("request.parked") >= 2
    assert app.trace.count("request.unparked") >= 1
    check_guarantee(app)


# ----------------------------------------------------------------------
# generation bump racing a batched produce
# ----------------------------------------------------------------------
def test_stale_epoch_batch_is_rejected_whole():
    kernel = Kernel(seed=1)
    broker = Broker(kernel, BrokerConfig())
    broker.acquire_partition_lease("t", "comp", "comp#1", 1)
    outcome: dict = {}

    async def produce_stale():
        try:
            outcome["result"] = await broker.produce_batch(
                "t",
                [("comp", "a"), ("other", "b"), ("comp", "c")],
                "comp#1",
            )
        except FencedMemberError as error:
            outcome["error"] = error

    kernel.spawn(produce_stale())
    # The handoff wins the race while the batch's produce round trip is in
    # flight: the successor acquires the lease at epoch 2.
    broker.acquire_partition_lease("t", "comp", "comp#2", 2)
    kernel.run(until=1.0)
    # Whole-batch rejection: the stale producer got a fencing error (the
    # lease acquisition fences the superseded member, and a stale-epoch
    # identity that escaped the fence set trips StaleLeaseError) and
    # nothing -- not even the entry for an unrelated partition -- landed.
    assert isinstance(outcome.get("error"), FencedMemberError)
    assert "result" not in outcome
    assert len(broker.topic("t").partition("comp")) == 0
    assert len(broker.topic("t").partition("other")) == 0


def test_stale_lease_blocks_fetch_and_single_produce():
    kernel = Kernel(seed=2)
    broker = Broker(kernel, BrokerConfig())
    broker.acquire_partition_lease("t", "comp", "comp#2", 2)

    async def attempt():
        with pytest.raises(StaleLeaseError):
            await broker.produce("t", "x", "v", "comp#1")
        with pytest.raises(StaleLeaseError):
            await broker.fetch("t", "comp#1", 0, "comp#1")
        # The lease holder itself passes.
        await broker.produce("t", "x", "v", "comp#2")

    task = kernel.spawn(attempt())
    kernel.run_until_complete(task, timeout=10.0)


def test_lease_acquisition_is_monotonic_and_fences_predecessor():
    kernel = Kernel(seed=3)
    broker = Broker(kernel, BrokerConfig())
    broker.acquire_partition_lease("t", "comp", "comp#1", 1)
    broker.acquire_partition_lease("t", "comp", "comp#2", 2)
    assert broker.is_fenced("comp#1")
    with pytest.raises(StaleLeaseError):
        broker.acquire_partition_lease("t", "comp", "comp#2b", 2)
    with pytest.raises(StaleLeaseError):
        broker.acquire_partition_lease("t", "comp", "comp#1", 1)
    assert broker.partition_lease("t", "comp") == ("comp#2", 2)


def test_leases_survive_cold_restart():
    kernel = Kernel(seed=4)
    broker = Broker(kernel, BrokerConfig())
    broker.acquire_partition_lease("t", "comp", "comp#3", 3)
    # A brand-new broker over the same log restores the lease, so a stale
    # incarnation cannot sneak back in across a process death.
    reborn = Broker(kernel, BrokerConfig(), log=broker.log)
    reborn.restore_from_log()
    assert reborn.partition_lease("t", "comp") == ("comp#3", 3)
    with pytest.raises(StaleLeaseError):
        reborn.acquire_partition_lease("t", "comp", "comp#2", 2)


# ----------------------------------------------------------------------
# graceful leave vs. crash: identical settled sets
# ----------------------------------------------------------------------
def run_leave_scenario(graceful: bool):
    kernel, app = make_cluster(seed=9, components=4)
    client = app.client()
    counters = 6
    bumps = 4

    async def workflow(cid):
        ref = actor_proxy("Counter", f"c{cid}")
        for _ in range(bumps):
            await client.invoke(None, ref, "bump", (1,), True)

    tasks = [
        kernel.spawn(workflow(cid), process=client.process)
        for cid in range(counters)
    ]
    kernel.run(until=kernel.now + 0.05)
    if graceful:
        app.control.remove_worker("w0")
    else:
        app.control.kill_worker("w0")
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    totals = tuple(
        app.run_call(actor_proxy("Counter", f"c{cid}"), "get")
        for cid in range(counters)
    )
    kernel.run(until=kernel.now + 5.0)
    return app, totals, (bumps,) * counters


def test_graceful_and_crash_leave_settle_identically():
    graceful, graceful_totals, expected = run_leave_scenario(True)
    crash, crash_totals, _ = run_leave_scenario(False)
    assert graceful_totals == crash_totals == expected
    check_guarantee(graceful)
    check_guarantee(crash)


# ----------------------------------------------------------------------
# adaptive placement under skew, mid-burst, both store backends
# ----------------------------------------------------------------------
def skewed_ids(app, component_name, count):
    """Actor ids whose placement hash keys them to ``component_name``."""
    candidates = sorted(
        name for name, types in app.component_types.items() if types
    )
    ids, index = [], 0
    while len(ids) < count:
        actor_id = f"z{index}"
        ref = actor_proxy("Counter", actor_id)
        if candidates[ref.stable_hash() % len(candidates)] == component_name:
            ids.append(actor_id)
        index += 1
    return ids


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_skewed_burst_splits_midflight_and_settles_exactly_once(
    mode, tmp_path, monkeypatch
):
    monkeypatch.setattr(placement_ctl, "SPLIT_FACTOR", 4)
    monkeypatch.setattr(placement_ctl, "REBALANCE_COOLDOWN", 0.3)
    overrides = dict(drain_timeout=0.4)
    if mode == "sqlite":
        overrides["persistence"] = PersistenceConfig(
            mode="sqlite", root=str(tmp_path / "durable")
        )
    kernel, app = make_cluster(seed=21, workers=4, components=4, **overrides)
    client = app.client()
    hot = "comp1"
    ids = skewed_ids(app, hot, 12)
    bumps = 20

    async def workflow(actor_id):
        ref = actor_proxy("Counter", actor_id)
        for _ in range(bumps):
            await client.invoke(None, ref, "bump", (1,), True)

    tasks = [
        kernel.spawn(workflow(actor_id), process=client.process)
        for actor_id in ids
    ]
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    # The controller acted while the burst was still in flight...
    assert app.control.splits >= 1
    assert app.trace.of_kind("component.split")[0]["component"] == hot
    kernel.run(until=kernel.now + 3.0)
    # ...and every bump still landed exactly once, on either backend.
    totals = {
        actor_id: app.run_call(actor_proxy("Counter", actor_id), "get")
        for actor_id in ids
    }
    assert totals == {actor_id: bumps for actor_id in ids}
    check_guarantee(app)
    app.shutdown()


# ----------------------------------------------------------------------
# target worker dies while the migration is draining
# ----------------------------------------------------------------------
def test_migration_target_killed_mid_drain_lands_on_live_worker():
    SlowCallee.runs = 0
    kernel = Kernel(seed=22)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.002, cancellation=False
    )
    app = KarApplication(kernel, config, "edges", workers=3)
    app.register_actor(SlowCallee, "SlowCallee")
    app.add_component("callees", ("SlowCallee",))
    client = app.client()
    app.settle()

    ref = actor_proxy("SlowCallee", "c")
    task = kernel.spawn(
        client.invoke(None, ref, "task", (1,), True), process=client.process
    )
    kernel.run(until=kernel.now + 0.5)  # the callee is mid-sleep
    assert SlowCallee.runs == 1

    # Start a migration toward a specific target, then kill that target
    # while the 6s-long callee holds the drain open (drain_timeout is 5s).
    source = app.control.worker_of("callees")
    target = next(
        wid
        for wid in sorted(app.control.workers)
        if wid != source and app.control.workers[wid].alive
    )
    move = kernel.spawn(app.control._move_component("callees", target))
    kernel.run(until=kernel.now + 1.0)  # migration is draining
    app.control.kill_worker(target)
    kernel.run_until_complete(move, timeout=60.0)

    landed = app.control.worker_of("callees")
    assert landed is not None
    assert landed != target
    assert app.control.workers[landed].alive and not app.control.workers[landed].retired
    # The in-flight call settles exactly once on the re-hosted component.
    assert kernel.run_until_complete(task, timeout=300.0) == 2
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)
