"""Edge cases in recovery: unplaceable types, duplicate copies, expiry,
superseded reconciliations, leader failover."""

import errno

import pytest

from repro.core import Actor, actor_proxy
from repro.core.reconciler import UNPLACED_PARTITION
from repro.persist import PersistenceConfig

from helpers import Latch, make_app, two_component_app
from oracle import check_guarantee


def test_call_waits_for_type_to_become_available():
    """Kill the only component hosting a type mid-call: the pending request
    parks in the unplaced queue and completes once a new host joins
    (Section 4.3: requests to unavailable types are revisited)."""

    class SlowLatch(Latch):
        async def slow_get(self, ctx):
            await ctx.sleep(3.0)
            return self.v

    kernel, app = make_app(seed=51)
    app.register_actor(SlowLatch)
    app.add_component("only", ("SlowLatch",))
    client = app.client()
    app.settle()
    ref = actor_proxy("SlowLatch", "x")
    app.run_call(ref, "set", 5)

    task = kernel.spawn(
        client.invoke(None, ref, "slow_get", (), True), process=client.process
    )
    kernel.run(until=kernel.now + 1.0)  # request is mid-execution
    app.kill_component("only")
    kernel.run(until=kernel.now + 8.0)  # recovery: nowhere to place
    assert not task.done()
    unplaced = app.broker.topic(app.topic_name).partitions.get(
        UNPLACED_PARTITION
    )
    assert unplaced is not None and len(unplaced) >= 1
    app.restart_component("only")
    assert kernel.run_until_complete(task, timeout=120.0) == 0  # volatile
    check_guarantee(app)


def test_leader_failover_restarts_reconciliation():
    """Kill the reconciliation leader during recovery of another failure;
    the next leader finishes the job."""
    kernel, app = two_component_app(seed=52)
    app.add_component("w3", ("Latch",))
    kernel.run(until=kernel.now + 2.0)
    ref = actor_proxy("Latch", "x")
    app.run_call(ref, "set", 9)

    # Fail one worker; then, as soon as the rebalance fires, kill the leader.
    leader_member = app.coordinator.leader
    leader_name = leader_member.rsplit("#", 1)[0]
    victims = [n for n in ("w1", "w2", "w3") if n != leader_name][:1]
    app.kill_component(victims[0])
    kernel.run(until=kernel.now + 1.3)  # detection fires
    if leader_name != "client":
        app.kill_component(leader_name)
    kernel.run(until=kernel.now + 15.0)
    assert not app.coordinator.paused
    assert app.run_call(ref, "get", timeout=120.0) in (0, 9)
    check_guarantee(app)


def test_duplicate_recovery_copies_are_skipped():
    """Force two reconciliations over the same stranded request; the second
    copy must be deduplicated by (id, step)."""
    executions = []

    class Slow(Actor):
        async def work(self, ctx):
            executions.append(ctx.now)
            await ctx.sleep(6.0)
            return "done"

    kernel, app = make_app(seed=53)
    app.register_actor(Slow)
    app.add_component("w1", ("Slow",))
    app.add_component("w2", ("Slow",))
    app.add_component("w3", ("Slow",))
    client = app.client()
    app.settle()
    ref = actor_proxy("Slow", "s")
    task = kernel.spawn(
        client.invoke(None, ref, "work", (), True), process=client.process
    )
    kernel.run(until=kernel.now + 0.5)
    host = next(
        name for name in ("w1", "w2", "w3")
        if ref in app.components[name]._instances
    )
    app.kill_component(host)
    kernel.run(until=kernel.now + 2.0)  # first recovery copies the request
    # A second failure triggers another reconciliation while the retry runs.
    other = next(
        name for name in ("w1", "w2", "w3")
        if name != host and not any(
            r == ref for r in app.components[name]._instances
        )
    )
    app.kill_component(other)
    assert kernel.run_until_complete(task, timeout=300.0) == "done"
    # The retried attempt ran at most twice in total (original + retry);
    # duplicate copies were skipped, not re-executed.
    assert len(executions) == 2
    check_guarantee(app)


def test_completed_work_not_rerun_after_multiple_failures():
    """Regression for the evidence-destruction bug: completion records in
    dead queues must survive long enough that later reconciliations do not
    re-run completed invocations."""
    runs = []

    class Effect(Actor):
        async def apply(self, ctx, tag):
            runs.append(tag)
            return tag

    kernel, app = make_app(seed=54)
    app.register_actor(Effect)
    app.add_component("w1", ("Effect",))
    app.add_component("w2", ("Effect",))
    client = app.client()
    app.settle()
    ref = actor_proxy("Effect", "e")
    client_component = app.client()

    # Issue a tell (fire and forget) and let it complete.
    kernel.run_until_complete(
        kernel.spawn(
            client_component.invoke(None, ref, "apply", ("first",), False),
            process=client_component.process,
        ),
        timeout=60.0,
    )
    kernel.run(until=kernel.now + 2.0)
    assert runs == ["first"]

    # Now kill and restart each component a few times.
    for victim in ("w1", "w2", "w1"):
        if app.components[victim].alive:
            app.kill_component(victim)
        kernel.run(until=kernel.now + 4.0)
        app.restart_component(victim)
        kernel.run(until=kernel.now + 4.0)
    assert runs == ["first"]  # never re-executed
    check_guarantee(app)


def test_completed_call_not_rerun_after_multiple_failures():
    """The same for a call: its response sits in the client's queue, not in
    the executing component's, and the dead queues it passed through wait
    out retention, so no later reconciliation re-runs it."""
    runs = []

    class Effect(Actor):
        async def apply(self, ctx, tag):
            runs.append(tag)
            return tag

    kernel, app = make_app(seed=75)
    app.register_actor(Effect)
    app.add_component("w1", ("Effect",))
    app.add_component("w2", ("Effect",))
    app.client()
    app.settle()
    assert app.run_call(actor_proxy("Effect", "e"), "apply", "once") == "once"
    for victim in ("w1", "w2", "w1"):
        if app.components[victim].alive:
            app.kill_component(victim)
        kernel.run(until=kernel.now + 4.0)
        app.restart_component(victim)
        kernel.run(until=kernel.now + 4.0)
    assert runs == ["once"]
    check_guarantee(app)


def test_superseded_reconciliation_aborts_cleanly():
    kernel, app = two_component_app(seed=55)
    app.run_call(actor_proxy("Latch", "x"), "set", 1)
    app.kill_component("w1")
    kernel.run(until=kernel.now + 1.3)  # reconciliation of w1 starts
    app.kill_component("w2")  # supersede it
    app.restart_component("w1")
    app.restart_component("w2")
    kernel.run(until=kernel.now + 20.0)
    assert not app.coordinator.paused
    supersessions = app.trace.count("reconcile.superseded")
    assert supersessions >= 0  # may or may not race; must not crash
    check_guarantee(app)


def test_fenced_component_terminates_itself():
    kernel, app = two_component_app(seed=56)
    member_id = app.components["w1"].member_id
    original_heartbeat = app.coordinator.heartbeat

    def muted(member):
        if member != member_id:
            original_heartbeat(member)

    app.coordinator.heartbeat = muted
    kernel.run(until=kernel.now + 10.0)
    assert not app.components["w1"].alive  # paired-process termination
    assert app.trace.count("component.fenced_exit", member=member_id) >= 0
    check_guarantee(app)


# ----------------------------------------------------------------------
# a metadata write that fails (ENOSPC) wedges nothing
# ----------------------------------------------------------------------
def failing_set_meta(app, prefix, times=1):
    """Make the broker log's next ``times`` writes of a key starting with
    ``prefix`` fail as a full disk would; returns the refused keys."""
    log = app.broker.log
    set_meta = log.set_meta
    refused = []

    def write(key, value):
        if key.startswith(prefix) and len(refused) < times:
            refused.append(key)
            raise OSError(errno.ENOSPC, "No space left on device")
        set_meta(key, value)

    log.set_meta = write
    return refused


def durable_app(mode, tmp_path, seed):
    if mode == "sqlite":
        persistence = PersistenceConfig.sqlite(str(tmp_path))
        return two_component_app(seed=seed, persistence=persistence)
    return two_component_app(seed=seed)


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_a_refused_generation_write_is_retried_not_wedged(mode, tmp_path):
    kernel, app = durable_app(mode, tmp_path, seed=57)
    ref = actor_proxy("Latch", "x")
    app.run_call(ref, "set", 3)
    generation = app.coordinator.generation
    refused = failing_set_meta(app, "group:", times=2)
    app.kill_component("w1")
    app.restart_component("w1")
    assert app.run_call(ref, "get", timeout=60.0) in (0, 3)
    assert refused == ["group:app:generation"] * 2
    assert app.coordinator.generation == generation + 1
    assert app.broker.log.get_meta("group:app:generation") == generation + 1
    check_guarantee(app)
    app.shutdown()


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_a_refused_epoch_write_leaves_the_epoch_where_the_journal_has_it(
    mode, tmp_path
):
    kernel, app = durable_app(mode, tmp_path, seed=58)
    refused = failing_set_meta(app, "app:app:epoch:")
    app.kill_component("w1")
    with pytest.raises(OSError):
        app.restart_component("w1")
    assert refused == ["app:app:epoch:w1"]
    assert app.broker.log.get_meta("app:app:epoch:w1") == 0
    assert app.restart_component("w1").member_id == "w1#1"
    assert app.run_call(actor_proxy("Latch", "x"), "get", timeout=60.0) == 0
    kernel.run(until=kernel.now + 2.0)
    check_guarantee(app)
    app.shutdown()
