"""Edge cases in recovery: unplaceable types, duplicate copies, expiry,
superseded reconciliations, leader failover, and how the leader weighs its
catalog."""

import errno

import pytest

from repro.core import Actor, actor_proxy
from repro.core.envelope import Request, Response
from repro.core.reconciler import UNPLACED_PARTITION, Reconciler
from repro.core.refs import ActorRef
from repro.mq import FileJournalLog, MemoryBrokerLog, Record
from repro.persist import PersistenceConfig, framing

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
# (tail-self) recovery order: a held tail chain resumes before arrivals
# ----------------------------------------------------------------------
class Hop(Actor):
    async def start(self, ctx, wid, hops):
        return ctx.tail_call(actor_proxy("Total", f"t{wid % 8}"), "add", wid, hops)


class Total(Actor):
    """``add`` reads and tail-calls itself to ``commit`` the read plus one:
    anything that runs on the actor between the two loses an increment."""

    async def add(self, ctx, wid, hops):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", wid, hops, total + 1)

    async def commit(self, ctx, wid, hops, new_total):
        await ctx.state.set("total", new_total)
        if hops > 1:
            return ctx.tail_call(actor_proxy("Hop", f"f{wid}"), "start", wid, hops - 1)
        return "done"

    async def report(self, ctx):
        return await ctx.state.get("total", 0)


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_tail_self_copies_recover_before_other_stranded_requests(mode, tmp_path):
    """Sixteen four-hop chains, two per ``Total`` actor, killed with every
    process 0.035 s in and reopened. Among the stranded requests, the
    reconciler copies the ``commit`` tail calls that hold their actor's lock
    first; copied in request-id order instead, a waiting chain's ``add``
    slips in between another's ``add`` and ``commit``: two commits are
    lost and the oracle reports two "tail lock" lines."""
    persistence = (
        PersistenceConfig.sqlite(str(tmp_path))
        if mode == "sqlite"
        else PersistenceConfig()
    )
    kernel, app = make_app(seed=3, persistence=persistence)
    app.register_actor(Hop)
    app.register_actor(Total)

    def deploy(boot):
        for name in ("w0", "w1"):
            boot.add_component(name, ("Hop", "Total"))
        client = boot.client()
        boot.settle()
        return client

    client = deploy(app)
    for wid in range(16):
        kernel.spawn(
            client.invoke(None, actor_proxy("Hop", f"f{wid}"), "start", (wid, 4), True),
            client.process,
        )
    kernel.run(until=kernel.now + 0.035)
    assert app.stats("calls")["unsettled"]  # the kill strands work
    reopened = app.reopen()
    deploy(reopened)
    deadline = kernel.now + 120.0
    while reopened.stats("calls")["unsettled"] and kernel.now < deadline:
        kernel.run(until=kernel.now + 0.5)
    kernel.run(until=kernel.now + 5.0)
    totals = [
        reopened.run_call(actor_proxy("Total", f"t{index}"), "report")
        for index in range(8)
    ]
    assert totals == [8] * 8  # two chains of four commits each
    check_guarantee(app, reopened)
    reopened.shutdown()


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


# ----------------------------------------------------------------------
# weighing the catalog: one decode per unsettled request, merged order kept
# ----------------------------------------------------------------------
def request(request_id, step=0, caller=None, copy_epoch=0):
    return Request(
        request_id, step, ActorRef("Latch", "x"), "get", (), caller,
        "client#0", None, "client#0", copy_epoch=copy_epoch,
    )


def as_runs(tmp_path, catalog, journaled):
    """``catalog``, one list of records per partition, appended to a log
    and read back as one run per partition; journaled, the runs are
    replayed and undecoded."""
    path = str(tmp_path / "weigh.journal")
    log = FileJournalLog(path) if journaled else MemoryBrokerLog()
    for records in catalog:
        for record in records:
            entry = (record.partition, record.value)
            assert log.append_many("t", [entry], record.timestamp) == [record.offset]
    if journaled:
        log.close()
        log = FileJournalLog(path)
    runs = {part: records for _, part, _, _, records in log.replay()}
    log.close()
    return [runs[records[0].partition] for records in catalog]


@pytest.mark.parametrize("journaled", [False, True], ids=["memory", "journal"])
def test_an_equal_step_copy_in_a_live_queue_beats_its_dead_rivals(
    journaled, tmp_path, monkeypatch
):
    """At equal step the copy a survivor holds wins, even over a later copy
    stranded in a dead queue; only the latest step's records are read."""
    live = [
        Record("live#1", 0, 3.0, request("r1", step=1, copy_epoch=1)),
        Record("live#1", 1, 3.0, request("r2")),
    ]
    dead = [
        Record("dead#0", 0, 1.0, request("r1", step=0)),
        Record("dead#0", 1, 1.5, request("r1", step=1)),
        Record("dead#0", 2, 1.5, Response("r0")),
    ]
    later = [Record("dead#2", 0, 2.0, request("r1", step=1, copy_epoch=2))]
    catalog = [later, live, dead]
    catalog = as_runs(tmp_path, catalog, journaled)
    decoded = []
    decode_value = framing.decode_value
    monkeypatch.setattr(
        framing, "decode_value", lambda *args: decoded.append(1) or decode_value(*args)
    )
    for order in (catalog, catalog[::-1]):
        responses, latest, _children = Reconciler.weigh(order, {"live#1"})
        assert responses == {"r0"}
        assert latest["r1"] == ("live#1", request("r1", step=1, copy_epoch=1))
        assert latest["r2"] == ("live#1", request("r2"))
    # The three step-1 rivals of r1 and r2's one record, each decoded once.
    assert len(decoded) == (4 if journaled else 0)


@pytest.mark.parametrize("journaled", [False, True], ids=["memory", "journal"])
def test_a_stranded_caller_waits_on_its_oldest_unsettled_child(journaled, tmp_path):
    """Children are ordered by each one's first record, not by the record
    that wins: ``a`` was called before ``b`` and tail-called itself after
    ``b`` was sent, so the retried caller waits on ``a``."""
    dead = [
        Record("dead#0", 0, 0.5, request("p")),
        Record("dead#0", 1, 0.6, request("z", caller="p")),
        Record("dead#0", 2, 1.0, request("a", caller="p")),
        Record("dead#0", 3, 3.0, request("b", caller="p")),
    ]
    other = [
        Record("dead#1", 0, 0.7, Response("z")),
        Record("dead#1", 1, 5.0, request("a", step=1, caller="p")),
    ]
    catalog = [other, dead]
    catalog = as_runs(tmp_path, catalog, journaled)
    responses, latest, children = Reconciler.weigh(catalog, {"live#1"})
    assert children == {"p": ["a", "b"]}
    assert latest["a"] == ("dead#1", request("a", step=1, caller="p"))
    assert Reconciler._pending_callee(latest["p"][1], children, responses) == "a"
