"""Multi-worker scale-out: sharded hosting, worker lifecycle, handoff.

Covers the cluster control plane (`repro.core.cluster`): the one rule that
places components on worker loops, the unified ``app.stats()`` evidence
surface, worker crash detection + re-hosting, graceful removal, levelling
on worker join, and exactly-once settlement across a mid-workload worker
kill on both store backends.
"""

from __future__ import annotations

import pytest

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel

from helpers import Counter
from oracle import check_guarantee


class Echo(Actor):
    async def ping(self, ctx, x):
        return x + 1


def make_cluster(
    seed=0, workers=2, components=4, mode="memory", tmp_path=None, **overrides
):
    kernel = Kernel(seed=seed)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.002, **overrides
    )
    if mode == "sqlite":
        config = config.with_overrides(
            persistence=PersistenceConfig(
                mode="sqlite", root=str(tmp_path / "durable")
            )
        )
    app = KarApplication(kernel, config, "cluster", workers=workers)
    app.register_actor(Echo, "Echo")
    app.register_actor(Counter, "Counter")
    for index in range(components):
        app.add_component(f"comp{index}", ("Echo", "Counter"))
    app.client()
    app.settle()
    return kernel, app


def spawn_calls(kernel, app, ids):
    client = app.client()

    async def one(n):
        return await client.invoke(
            None, actor_proxy("Echo", f"a{n % 32}"), "ping", (n,), True
        )

    return [kernel.spawn(one(n), process=client.process) for n in ids]


def drive_calls(kernel, app, ids, timeout=600.0):
    tasks = spawn_calls(kernel, app, ids)
    return kernel.run_until_complete(kernel.gather(tasks), timeout=timeout)


# ----------------------------------------------------------------------
# hosting & evidence surface
# ----------------------------------------------------------------------
def test_components_shard_across_workers_balanced():
    kernel, app = make_cluster(components=6, workers=2)
    placement = {name: app.control.worker_of(name) for name in app.components}
    hosted = [w for w in placement.values() if w is not None]
    assert len(hosted) == 6  # every actor-hosting component is assigned
    assert placement["client"] is None  # clients stay external
    per_worker = {w: hosted.count(w) for w in set(hosted)}
    assert set(per_worker.values()) == {3}


def test_worker_count_is_deployment_not_type():
    """One application type. Without workers the constructor queues nothing
    on the kernel, components run on the application's own coordinator and
    the worker-shaped stats families are at rest; a worker added later gets
    its sweeps and hosts what is added after it."""
    kernel = Kernel(seed=3)
    app = KarApplication(kernel, KarConfig.fast_test(), "plain")
    assert app.control.workers == {}
    assert kernel._heap == [] and len(kernel._ready) == 0
    app.register_actor(Echo, "Echo")
    first = app.add_component("comp0", ("Echo",))
    assert first.worker is None and first.coordinator is app.coordinator
    assert app.stats("workers") == {}
    placement = app.stats("placement")
    assert placement["controller"]["ticks"] == 0 and placement["load"] == {}

    worker = app.control.add_worker()
    assert list(app.control.workers) == ["w0"]
    second = app.add_component("comp1", ("Echo",))
    assert second.worker is worker and second.coordinator is app.coordinator
    assert app.client().worker is None
    app.settle()
    assert sorted(drive_calls(kernel, app, range(8))) == list(range(1, 9))
    kernel.run(until=kernel.now + 1.0)
    assert app.control.worker_of("comp0") is None  # not re-hosted by the join
    assert app.control.placement_ctl.ticks > 0  # the sweeps started with w0
    kernel.check_no_crashes()
    app.shutdown()
    assert not worker.alive

    named = KarApplication(kernel, KarConfig.fast_test(), workers=("east", "west"))
    assert list(named.control.workers) == ["east", "west"]
    kernel.run(until=kernel.now + 0.5)
    named.shutdown()


def test_unified_stats_reports_per_worker():
    kernel, app = make_cluster()
    drive_calls(kernel, app, range(20))
    stats = app.stats()
    assert set(stats) == {
        "transport",
        "store",
        "persistence",
        "overload",
        "workers",
        "placement",
        "calls",
        "gateway",
    }
    # Single-family access agrees with the full tree.
    assert stats["transport"] == app.stats("transport")
    assert stats["store"] == app.stats("store")
    assert stats["persistence"] == app.stats("persistence")
    assert set(stats["workers"]) == {"w0", "w1"}
    charged = sum(w["calls_charged"] for w in stats["workers"].values())
    assert charged >= 20
    # busy_seconds is a decaying window; right after activity it is still
    # positive, while busy_seconds_total carries the lifetime sum.
    assert all(w["busy_seconds"] > 0 for w in stats["workers"].values())
    assert all(
        w["busy_seconds_total"] >= w["busy_seconds"]
        for w in stats["workers"].values()
    )
    assert stats["placement"] == app.stats("placement")


def test_worker_loop_cost_serializes_executions():
    kernel1, app1 = make_cluster(workers=1, components=8)
    start = kernel1.now
    drive_calls(kernel1, app1, range(100))
    span1 = kernel1.now - start

    kernel2, app2 = make_cluster(workers=2, components=8)
    start = kernel2.now
    drive_calls(kernel2, app2, range(100))
    span2 = kernel2.now - start
    assert span2 < span1 / 1.4  # two loops genuinely parallelize


# ----------------------------------------------------------------------
# worker lifecycle
# ----------------------------------------------------------------------
def test_worker_crash_rehosts_components_and_settles_in_flight():
    kernel, app = make_cluster(components=4, workers=2)
    victim = app.control.worker_of("comp0")
    tasks = spawn_calls(kernel, app, range(40))
    kernel.run(until=kernel.now + 0.01)  # let calls take flight
    app.control.kill_worker(victim)
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    assert results == [n + 1 for n in range(40)]
    kernel.run(until=kernel.now + 5.0)
    assert app.control.workers_failed == [victim]
    survivors = {
        app.control.worker_of(name)
        for name in app.components
        if name != "client"
    }
    assert victim not in survivors
    check_guarantee(app)


def test_graceful_remove_drains_and_hands_off():
    kernel, app = make_cluster(components=4, workers=2)
    drive_calls(kernel, app, range(10))
    app.control.remove_worker("w0")
    assert not app.control.workers["w0"].alive
    assert app.control.workers["w0"].retired
    # Every component now lives on the survivor and still serves calls.
    hosted = {
        app.control.worker_of(name) for name in app.components if name != "client"
    }
    assert hosted == {"w1"}
    assert drive_calls(kernel, app, range(10, 20)) == [
        n + 1 for n in range(10, 20)
    ]
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)


def test_add_worker_migrates_ring_share():
    kernel, app = make_cluster(components=6, workers=1)
    drive_calls(kernel, app, range(10))
    assert {app.control.worker_of(f"comp{i}") for i in range(6)} == {"w0"}
    app.control.add_worker("w1")
    kernel.run(until=kernel.now + 10.0)
    placement = {f"comp{i}": app.control.worker_of(f"comp{i}") for i in range(6)}
    assert "w1" in set(placement.values())  # some components moved over
    assert app.control.migrations > 0
    assert drive_calls(kernel, app, range(10, 30)) == [
        n + 1 for n in range(10, 30)
    ]
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)


def hosted_counts(app):
    return sorted(
        len(worker.hosted)
        for worker in app.control.workers.values()
        if worker.alive and not worker.retired
    )


@pytest.mark.parametrize("calls", [0, 40], ids=["quiet", "in-flight"])
@pytest.mark.parametrize(
    "components, workers, joins, moves",
    [(6, 1, 1, 3), (6, 1, 2, 4), (8, 2, 2, 4), (7, 3, 1, 1)],
)
def test_a_join_levels_hosted_counts_with_the_fewest_moves(
    components, workers, joins, moves, calls
):
    kernel, app = make_cluster(components=components, workers=workers)
    drive_calls(kernel, app, range(100, 110))  # the load windows are not empty
    tasks = spawn_calls(kernel, app, range(calls))
    kernel.run(until=kernel.now + 0.01)  # the joins find the calls in flight
    for _ in range(joins):
        app.control.add_worker()
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    assert results == [n + 1 for n in range(calls)]
    kernel.run(until=kernel.now + 15.0)
    counts = hosted_counts(app)
    assert len(counts) == workers + joins and sum(counts) == components
    assert counts[-1] - counts[0] <= 1
    assert app.control.migrations == moves
    check_guarantee(app)


def test_assign_workers_orders_by_busy_then_hosted_then_id():
    kernel = Kernel(seed=1)
    config = KarConfig.fast_test().with_overrides(worker_loop_cost=0.002)
    app = KarApplication(kernel, config, "rule", workers=("a", "b", "c"))
    kernel.run(until=kernel.now + 0.1)  # the heartbeat tasks start
    control = app.control
    workers = control.workers

    def order(count=3):
        return [worker.worker_id for worker in control.assign_workers(count)]

    assert order() == ["a", "b", "c"]  # all idle and empty: by id
    workers["a"].hosted.add("x")
    assert order() == ["b", "c", "a"]  # fewest hosted first
    workers["b"].loop._busy_window.add(1.0, kernel.now)
    assert order() == ["c", "a", "b"]  # least busy beats fewest hosted
    assert order(5) == ["c", "a", "b", "c", "a"]  # cycles past the live set
    assert order(1) == ["c"]
    workers["c"].retired = True
    assert order() == ["a", "b", "a"]
    for worker in workers.values():
        worker.retired = True
    with pytest.raises(RuntimeError, match="no live workers"):
        control.assign_workers()
    app.shutdown()


def test_removing_the_last_live_worker_is_refused_untouched():
    kernel, app = make_cluster(components=2, workers=1)
    assert drive_calls(kernel, app, range(4)) == [1, 2, 3, 4]
    epochs = {name: c.epoch for name, c in app.components.items()}
    with pytest.raises(ValueError, match="last live worker"):
        app.control.remove_worker("w0")
    worker = app.control.workers["w0"]
    assert worker.alive and not worker.retired
    assert worker.hosted == {"comp0", "comp1"}
    assert all(component.alive for component in app.components.values())
    assert {name: c.epoch for name, c in app.components.items()} == epochs
    assert app.control.migrations == 0
    assert app.trace.count("worker.retire") == 0
    assert drive_calls(kernel, app, range(4, 8)) == [5, 6, 7, 8]
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)


def test_the_control_loop_survives_the_death_of_the_last_worker():
    """No survivor can take the dead worker's components: they stay down,
    the sweeps carry on, and the next worker added re-hosts them."""
    kernel, app = make_cluster(components=2, workers=1)
    assert drive_calls(kernel, app, range(4)) == [1, 2, 3, 4]
    app.control.kill_worker("w0")
    kernel.run(until=kernel.now + 3.0)
    assert app.control.workers_failed == ["w0"]
    assert [name for name, c in app.components.items() if c.alive] == ["client"]
    ticks = app.control.placement_ctl.ticks
    kernel.run(until=kernel.now + 1.0)
    assert app.control.placement_ctl.ticks > ticks  # still sweeping
    kernel.check_no_crashes()

    stranded = spawn_calls(kernel, app, range(4, 8))
    kernel.run(until=kernel.now + 1.0)  # nobody hosts Echo: the calls wait
    assert not any(task.done() for task in stranded)
    app.control.add_worker("w1")
    assert kernel.run_until_complete(kernel.gather(stranded), timeout=600) == [
        5, 6, 7, 8
    ]
    assert {app.control.worker_of(f"comp{i}") for i in range(2)} == {"w1"}
    assert drive_calls(kernel, app, range(8, 12)) == [9, 10, 11, 12]
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)


# ----------------------------------------------------------------------
# one group, one coordinator: a membership wave is one generation at any
# worker count
# ----------------------------------------------------------------------
def generations(app):
    return [
        (record.generation, record.reason, record.failed, record.joined)
        for record in app.coordinator.history
    ]


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_generations_do_not_depend_on_the_worker_count(mode, tmp_path):
    histories = {}
    for workers in (0, 2, 4, 8):
        kernel, app = make_cluster(
            seed=7,
            workers=workers,
            components=8,
            mode=mode,
            tmp_path=tmp_path / str(workers),
        )
        assert app.coordinator.generation == 1
        app.kill_component("comp3")
        kernel.run(until=kernel.now + 5.0)
        assert app.coordinator.generation == 2 and not app.coordinator.paused
        assert all(r.resumed_at is not None for r in app.coordinator.history)
        assert app.trace.count("reconcile.superseded") == 0
        histories[workers] = generations(app)
        check_guarantee(app)
        app.shutdown()
    members = tuple(f"comp{i}#0" for i in range(8))
    assert histories[0] == [
        (1, "join", (), ("client#0",) + members),
        (2, "failure", ("comp3#0",), ()),
    ]
    assert histories[2] == histories[4] == histories[8] == histories[0]


def test_the_history_does_not_wait_for_a_client_to_join():
    kernel = Kernel(seed=7)
    spawned = []
    spawn = kernel.spawn

    def recording_spawn(coro, process=None, name="task"):
        spawned.append(name)
        return spawn(coro, process, name)

    kernel.spawn = recording_spawn
    app = KarApplication(kernel, KarConfig.fast_test(), "headless", workers=2)
    app.register_actor(Echo, "Echo")
    for index in range(4):
        app.add_component(f"comp{index}", ("Echo",))
    kernel.run(until=kernel.now + 2.0)
    assert generations(app) == [
        (1, "join", (), tuple(f"comp{i}#0" for i in range(4)))
    ]
    assert app.coordinator.history[0].resumed_at is not None
    # One group, one watchdog: the workers brought none of their own.
    assert [n for n in spawned if n.startswith("watchdog:")] == ["watchdog:headless"]


# ----------------------------------------------------------------------
# exactly-once across a mid-workload kill, both store backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_mid_workload_worker_kill_settles_exactly_once(mode, tmp_path):
    kernel, app = make_cluster(
        seed=3, components=4, workers=2, mode=mode, tmp_path=tmp_path
    )
    client = app.client()
    counters = 8
    bumps = 5

    async def workflow(cid):
        ref = actor_proxy("Counter", f"c{cid}")
        for _ in range(bumps):
            await client.invoke(None, ref, "bump", (1,), True)

    tasks = [
        kernel.spawn(workflow(cid), process=client.process)
        for cid in range(counters)
    ]
    kernel.run(until=kernel.now + 0.05)  # workflows mid-flight
    app.control.kill_worker("w0")
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    totals = [
        app.run_call(actor_proxy("Counter", f"c{cid}"), "get")
        for cid in range(counters)
    ]
    # Exactly once: every bump committed, none doubled by the recovery copy.
    assert totals == [bumps] * counters
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)
    app.shutdown()
