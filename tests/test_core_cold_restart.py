"""Cold-restart recovery: shutdown + reopen over durable backends.

These tests kill *every* process of an application (components, client,
their in-memory dedup evidence, placement caches, pending futures -- all of
it) and rebuild the application from the persistence layer alone. The
memory flavor models the infrastructure services surviving an app-wide
crash; the sqlite flavor reconstructs from files, as a brand-new OS process
would. The two tests that crash with calls in flight also run on three
worker event loops: the next boot must bring the same worker ids back and
host every actor-hosting component on one of them.
"""

from __future__ import annotations

import pytest

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel

from helpers import Flow, Tally
from oracle import check_guarantee

MODES = ["memory", "sqlite"]
#: (backend, worker loops); the worker-less ids are the historical ones.
DEPLOYMENTS = [
    pytest.param("memory", 0, id="memory"),
    pytest.param("sqlite", 0, id="sqlite"),
    pytest.param("memory", 3, id="memory-3workers"),
    pytest.param("sqlite", 3, id="sqlite-3workers"),
]


class RunCounter(Actor):
    """Deliberately non-idempotent: every execution bumps the counter."""

    async def bump(self, ctx):
        runs = await ctx.state.get("runs", 0)
        await ctx.state.set("runs", runs + 1)
        return runs + 1

    async def runs(self, ctx):
        return await ctx.state.get("runs", 0)


def make_config(mode: str, tmp_path) -> KarConfig:
    persistence = (
        PersistenceConfig(mode="sqlite", root=str(tmp_path / "durable"))
        if mode == "sqlite"
        else PersistenceConfig()
    )
    return KarConfig.fast_test().with_overrides(persistence=persistence)


def boot_app(kernel, config, name="app", workers=0):
    app = KarApplication.fresh(kernel, config, name=name, workers=workers)
    populate(app)
    return app


def populate(app):
    app.register_actor(Flow)
    app.register_actor(Tally)
    app.register_actor(RunCounter)
    app.add_component("w1", ("Flow", "Tally", "RunCounter"))
    app.add_component("w2", ("Flow", "Tally", "RunCounter"))
    app.client()
    app.settle()
    return app


def readd_components(app):
    """What a restarted deployment does: same names, same types."""
    app.add_component("w1", ("Flow", "Tally", "RunCounter"))
    app.add_component("w2", ("Flow", "Tally", "RunCounter"))
    app.client()
    app.settle()
    return app


def assert_same_workers_host_the_components(before, after):
    """The next boot keeps the worker ids, and every actor-hosting component
    runs on a live one of them (or on none, when there are none)."""
    assert list(after.control.workers) == list(before.control.workers)
    for name in ("w1", "w2"):
        worker = after.components[name].worker
        if after.control.workers:
            assert worker.alive
            assert after.control.workers[worker.worker_id] is worker
        else:
            assert worker is None
    assert after.client().worker is None


def drain(app, max_wait=180.0):
    deadline = app.kernel.now + max_wait
    while app.stats("calls")["unsettled"] and app.kernel.now < deadline:
        app.kernel.run(until=app.kernel.now + 1.0)
    return app.stats("calls")["unsettled"]


def total_commits(app):
    return sum(
        app.run_call(actor_proxy("Tally", f"t{i}"), "report") for i in range(3)
    )


@pytest.mark.parametrize("mode, workers", DEPLOYMENTS)
def test_reopen_settles_all_in_flight_calls_exactly_once(mode, workers, tmp_path):
    kernel = Kernel(seed=21)
    app = boot_app(kernel, make_config(mode, tmp_path), workers=workers)
    assert len(app.control.workers) == workers
    client = app.client()

    workflows, hops = 12, 3

    async def drive(wid):
        ref = actor_proxy("Flow", f"f{wid}")
        await client.invoke(None, ref, "start", (wid, hops), True)

    for wid in range(workflows):
        kernel.spawn(drive(wid), client.process, name=f"wf{wid}")
    # Crash mid-workflow: some chains have landed, none have finished.
    kernel.run(until=kernel.now + 0.05)
    in_flight = app.stats("calls")["unsettled"]
    assert in_flight  # the crash interrupted real work

    app2 = app.reopen()
    assert app2.restored_records > 0
    readd_components(app2)
    assert_same_workers_host_the_components(app, app2)

    drain(app2)
    # Every commit landed exactly once per workflow.
    assert total_commits(app2) == workflows * hops
    check_guarantee(app, app2)
    app2.shutdown()


@pytest.mark.parametrize("mode", MODES)
def test_completed_work_is_never_rerun_after_restart(mode, tmp_path):
    kernel = Kernel(seed=22)
    app = boot_app(kernel, make_config(mode, tmp_path))
    ref = actor_proxy("RunCounter", "only")

    assert app.run_call(ref, "bump") == 1
    task = kernel.spawn(
        app.client().invoke(None, ref, "bump", (), False),
        app.client().process,
        name="tell",
    )
    kernel.run_until_complete(task)
    kernel.run(until=kernel.now + 2.0)  # let the tell finish executing

    app2 = app.reopen()
    readd_components(app2)
    drain(app2)
    # The journals still retain the completed call and tell; their response
    # evidence (including the tell self-ack) keeps reconciliation from
    # re-running them, even though all in-memory dedup evidence died.
    assert app2.run_call(ref, "runs") == 2
    check_guarantee(app, app2)
    app2.shutdown()


@pytest.mark.parametrize("mode", MODES)
def test_boot_epochs_and_generation_are_monotonic(mode, tmp_path):
    kernel = Kernel(seed=23)
    app = boot_app(kernel, make_config(mode, tmp_path))
    assert app.boot == 1
    generation_before = app.coordinator.generation
    members_before = set(app.coordinator.members)

    app2 = app.reopen()
    readd_components(app2)
    assert app2.boot == 2
    # New incarnations never collide with journal partitions of the dead
    # boot: every epoch advanced past the persisted watermark.
    assert not (set(app2.coordinator.members) & members_before)
    assert app2.coordinator.generation > generation_before

    app3 = app2.reopen()
    readd_components(app3)
    assert app3.boot == 3
    drain(app3)
    check_guarantee(app, app2, app3)
    app3.shutdown()


def test_sqlite_reopen_restores_state_and_placement(tmp_path):
    kernel = Kernel(seed=24)
    app = boot_app(kernel, make_config("sqlite", tmp_path))
    ref = actor_proxy("Tally", "t0")
    app.run_call(ref, "commit", 99, 1, 5)

    placement_before = app.store.backend.get("placement:Tally:t0")
    assert placement_before in ("w1", "w2")

    app2 = app.reopen()
    readd_components(app2)
    # Placement names survive verbatim (component names are stable), and
    # actor state comes back from the database file.
    assert app2.store.backend.get("placement:Tally:t0") == placement_before
    assert app2.run_call(ref, "report") == 5
    check_guarantee(app, app2)
    app2.shutdown()


def test_fresh_wipes_previous_durable_files(tmp_path):
    kernel = Kernel(seed=25)
    config = make_config("sqlite", tmp_path)
    app = boot_app(kernel, config)
    app.run_call(actor_proxy("Tally", "t0"), "commit", 1, 1, 7)
    app.shutdown()

    app2 = KarApplication.fresh(kernel, config)
    populate(app2)
    assert app2.boot == 1  # not a reopen: history was wiped
    assert app2.restored_records == 0
    assert app2.run_call(actor_proxy("Tally", "t0"), "report") == 0
    kernel.check_no_crashes()
    app2.shutdown()


def test_shutdown_is_idempotent_and_blocks_joins(tmp_path):
    kernel = Kernel(seed=26)
    app = boot_app(kernel, make_config("memory", tmp_path))
    app.shutdown()
    app.shutdown()
    assert all(not component.alive for component in app.components.values())
    with pytest.raises(Exception):
        app.add_component("w3")


@pytest.mark.parametrize("mode, workers", DEPLOYMENTS)
def test_reopen_inherits_tracing_off(mode, workers, tmp_path):
    """A caller that switches the recorder off (a wall-clock benchmark) must
    find it off in the next boot too, not quietly on and recording the whole
    recovery; and every boot feeds the first boot's guarantee monitor."""
    kernel = Kernel(seed=25)
    app = boot_app(kernel, make_config(mode, tmp_path), workers=workers)
    app.trace.enabled = False
    client = app.client()
    for wid in range(12):
        ref = actor_proxy("Flow", f"f{wid}")
        kernel.spawn(client.invoke(None, ref, "start", (wid, 3), True), client.process)
    kernel.run(until=kernel.now + 0.05)
    assert app.stats("calls")["unsettled"]

    app2 = app.reopen()
    readd_components(app2)
    assert_same_workers_host_the_components(app, app2)
    assert drain(app2) == []
    assert app2.trace.enabled is False
    assert len(app2.trace) == 0
    assert app2.guarantee is app.guarantee and not app.guarantee.ended
    # ...and a recorder left on stays on, feeding the same monitor.
    app2.trace.enabled = True
    app3 = app2.reopen()
    readd_components(app3)
    assert_same_workers_host_the_components(app, app3)
    assert len(app3.trace) > 0
    assert app3.guarantee is app.guarantee
    assert app3.trace.subscribers == [app.guarantee]
    assert len(app.guarantee.ended) == app3.trace.count("invoke.end")
    kernel.check_no_crashes()
    app3.shutdown()
