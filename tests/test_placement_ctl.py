"""Adaptive placement: the load plane, the controller, and wedged workers.

What must hold:

- ``KarWorker.stats()`` busy_seconds is a *decaying window* (current
  hotness), not a monotonic lifetime counter;
- the control loop samples a per-component load snapshot every tick
  (``stats("placement")["load"]``);
- sustained skew triggers a migration of the hottest component off the
  busiest worker; a component too hot for any single worker splits into
  sub-partitions and merges back when it cools -- with every call settling
  exactly once across the moves; a cluster without a controller moves
  nothing;
- a wedged worker's loop stops its own heartbeat, so the heartbeat sweep
  declares it failed within five heartbeat intervals, its components move
  to the other workers and its calls settle exactly once there; a healthy
  idle cluster fails no worker.
"""

from __future__ import annotations

from repro.core import (
    DecayingCounter,
    KarApplication,
    KarConfig,
    actor_proxy,
    placement_ctl,
)
from repro.core.cluster import WORKER_HEARTBEAT_INTERVAL
from repro.sim import Kernel

from helpers import Counter
from oracle import check_guarantee


def make_cluster(seed=0, workers=2, components=4, **overrides):
    kernel = Kernel(seed=seed)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.005, **overrides
    )
    app = KarApplication(kernel, config, "ctl", workers=workers)
    app.register_actor(Counter, "Counter")
    for index in range(components):
        app.add_component(f"comp{index}", ("Counter",))
    app.client()
    app.settle()
    return kernel, app


def actor_ids_on(app, component_name, count):
    """Actor ids whose placement hash keys them to ``component_name``."""
    candidates = sorted(
        name for name, types in app.component_types.items() if types
    )
    ids, index = [], 0
    while len(ids) < count:
        actor_id = f"h{index}"
        ref = actor_proxy("Counter", actor_id)
        if candidates[ref.stable_hash() % len(candidates)] == component_name:
            ids.append(actor_id)
        index += 1
    return ids


def pump(kernel, client, actor_ids, bumps):
    """Closed-loop drivers: ``bumps`` sequential bumps per actor."""

    async def workflow(actor_id):
        ref = actor_proxy("Counter", actor_id)
        for _ in range(bumps):
            await client.invoke(None, ref, "bump", (1,), True)

    return [
        kernel.spawn(workflow(actor_id), process=client.process)
        for actor_id in actor_ids
    ]


def totals_of(app, actor_ids):
    return {
        actor_id: app.run_call(actor_proxy("Counter", actor_id), "get")
        for actor_id in actor_ids
    }


# ----------------------------------------------------------------------
# the load signal
# ----------------------------------------------------------------------
def test_decaying_counter_halves_per_halflife():
    counter = DecayingCounter(halflife=2.0)
    counter.add(8.0, 0.0)
    assert counter.value(0.0) == 8.0
    assert counter.value(2.0) == 4.0
    assert counter.value(6.0) == 1.0
    # A steady inflow of r/sec equilibrates at r * halflife / ln2, so rate
    # inverts value back to the sustaining input rate.
    assert abs(counter.rate(2.0) - 4.0 * 0.6931471805599453 / 2.0) < 1e-12


def test_busy_seconds_is_windowed_not_lifetime():
    kernel, app = make_cluster(seed=11)
    ids = actor_ids_on(app, "comp0", 4)
    tasks = pump(kernel, app.client(), ids, 10)
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    hot = [
        w for w in app.stats()["workers"].values() if w["busy_seconds"] > 0
    ]
    assert hot  # the window is positive right after activity
    totals_before = {
        wid: w["busy_seconds_total"]
        for wid, w in app.stats()["workers"].items()
    }
    # Idle for many half-lives: the window decays away, the total does not.
    kernel.run(until=kernel.now + 20 * placement_ctl.LOAD_HALFLIFE)
    stats = app.stats()["workers"]
    assert all(w["busy_seconds"] < 1e-3 for w in stats.values())
    assert {
        wid: w["busy_seconds_total"] for wid, w in stats.items()
    } == totals_before
    assert sum(totals_before.values()) > 0


def test_control_loop_publishes_load_plane_through_store(monkeypatch):
    monkeypatch.setattr(placement_ctl, "SPLIT_THRESHOLD", 10.0)
    kernel, app = make_cluster(seed=12)
    ids = actor_ids_on(app, "comp1", 4)
    tasks = pump(kernel, app.client(), ids, 8)
    kernel.run(until=kernel.now + 0.5)  # a few control ticks mid-burst
    snapshot = app.stats("placement")["load"]
    assert set(snapshot) == {"workers", "components"}
    assert set(snapshot["workers"]) <= set(app.control.workers)
    loads = snapshot["components"]
    assert loads["comp1"]["busy_rate"] > 0
    assert loads["comp1"]["calls_per_s"] > 0
    assert loads["comp1"]["worker"] == app.control.worker_of("comp1")
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)


# ----------------------------------------------------------------------
# migration and splitting
# ----------------------------------------------------------------------
def test_hot_component_migrates_off_busiest_worker(monkeypatch):
    # Splitting is disabled (unreachable threshold): pure migration path.
    monkeypatch.setattr(placement_ctl, "SPLIT_THRESHOLD", 10.0)
    monkeypatch.setattr(placement_ctl, "REBALANCE_THRESHOLD", 0.4)
    kernel, app = make_cluster(seed=13, workers=2, components=4, drain_timeout=0.5)
    # Heat *both* components of one worker so a migration (not a swap of
    # the hotspot) is the fix.
    busiest = app.control.worker_of("comp0")
    hot_comps = sorted(
        name for name in app.component_types if app.control.worker_of(name) == busiest
    )
    assert len(hot_comps) == 2
    ids = [i for comp in hot_comps for i in actor_ids_on(app, comp, 4)]
    moves_before = app.control.migrations
    tasks = pump(kernel, app.client(), ids, 25)
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    kernel.run(until=kernel.now + 2.0)
    assert app.control.migrations > moves_before
    # The two hot components no longer share a worker.
    assert len({app.control.worker_of(name) for name in hot_comps}) == 2
    assert totals_of(app, ids) == {actor_id: 25 for actor_id in ids}
    check_guarantee(app)


def test_hot_component_splits_and_merges_back_exactly_once(monkeypatch):
    monkeypatch.setattr(placement_ctl, "SPLIT_FACTOR", 4)
    monkeypatch.setattr(placement_ctl, "REBALANCE_COOLDOWN", 0.3)
    kernel, app = make_cluster(seed=14, workers=4, components=4, drain_timeout=0.4)
    ids = actor_ids_on(app, "comp2", 12)
    tasks = pump(kernel, app.client(), ids, 25)
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    assert app.control.splits >= 1
    split_events = app.trace.of_kind("component.split")
    assert split_events and split_events[0]["component"] == "comp2"
    # Cooling off: the children idle below the merge floor long enough for
    # patience + cooldown to expire, then the parent is restored.
    kernel.run(until=kernel.now + 8.0)
    assert app.control.merges >= 1
    assert app.control.split_children == {}
    assert not any("comp2.s" in name for name in app.components)
    assert app.components["comp2"].alive
    # Exactly once across split + merge: every bump landed exactly once.
    assert totals_of(app, ids) == {actor_id: 25 for actor_id in ids}
    check_guarantee(app)


def test_a_static_cluster_runs_no_controller():
    """The burst that splits ``comp2`` above, on a cluster without a
    controller: nothing moves, and the placement surface still answers."""
    kernel, app = make_cluster(seed=14, workers=4, components=4, drain_timeout=0.4)
    app.control.placement_ctl = None
    moves_before = app.control.migrations
    ids = actor_ids_on(app, "comp2", 12)
    tasks = pump(kernel, app.client(), ids, 25)
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    kernel.run(until=kernel.now + 8.0)
    placement = app.stats("placement")
    assert placement["migrations"] == moves_before
    assert (placement["splits"], placement["merges"]) == (0, 0)
    assert placement["controller"] is None and placement["load"] == {}
    assert app.trace.of_kind("component.split") == []
    assert totals_of(app, ids) == {actor_id: 25 for actor_id in ids}
    check_guarantee(app)


# ----------------------------------------------------------------------
# the wedged-worker failure mode: one liveness signal
# ----------------------------------------------------------------------
def test_wedged_worker_stops_its_heartbeat_and_is_failed_over():
    kernel, app = make_cluster(seed=15, workers=2, components=4)
    victim_id = app.control.worker_of("comp0")
    victim = app.control.workers[victim_id]
    hosted = sorted(victim.hosted)
    ids = [i for comp in hosted for i in actor_ids_on(app, comp, 2)]
    tasks = pump(kernel, app.client(), ids, 3)
    kernel.run(until=kernel.now + 0.1)

    victim.wedge()
    wedged_at = kernel.now
    interval = WORKER_HEARTBEAT_INTERVAL
    # The stalled loop writes no heartbeat: the one sweep that catches a
    # dead worker catches this one too, its processes still alive.
    kernel.run(until=wedged_at + 5 * interval)
    assert victim.wedged and not victim.alive
    assert victim_id in app.control.workers_failed
    failed = app.trace.where("worker.failed", worker=victim_id)
    assert failed and failed[0].time - wedged_at <= 5 * interval
    # Re-hosted off the wedged worker; every in-flight call settles
    # exactly once on the new owners.
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    kernel.run(until=kernel.now + 3.0)
    for comp in hosted:
        assert app.control.worker_of(comp) != victim_id
        assert app.components[comp].alive
    assert totals_of(app, ids) == {actor_id: 3 for actor_id in ids}
    check_guarantee(app)


def test_healthy_idle_cluster_fails_no_worker():
    kernel, app = make_cluster(seed=16)
    ids = actor_ids_on(app, "comp0", 3)
    tasks = pump(kernel, app.client(), ids, 5)
    kernel.run_until_complete(kernel.gather(tasks), timeout=600)
    # Idle for fifty heartbeat intervals: every loop keeps beating.
    kernel.run(until=kernel.now + 50 * WORKER_HEARTBEAT_INTERVAL)
    assert app.control.workers_failed == []
    assert all(worker.alive for worker in app.control.workers.values())
