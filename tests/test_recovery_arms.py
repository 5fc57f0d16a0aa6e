"""Recovery arms that the rest of tier-1 never takes, each with a scenario.

Every row of :data:`ARMS` names one ``if`` arm of the recovery, routing,
redelivery or mailbox code and the scenario that takes it. The scenario
returns what went wrong (an empty list on the real code), and a named test
per scenario asserts that it is empty. The table test then rebuilds the
arm's function with the arm skipped -- its condition made ``False and ...``
-- and runs the scenario again: it must report something. So each arm is
needed by at least one behaviour a test can see.

:data:`UNKILLED` lists the arms that no scenario needs, and why.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap
from dataclasses import replace

import pytest

from repro.core import Actor, KarConfig, actor_proxy, overload
from repro.core.app import KarApplication
from repro.core.dispatcher import ActorMailbox
from repro.core.reconciler import Reconciler
from repro.core.router import Router
from repro.obs import guarantee_violations
from repro.sim import Latency

from helpers import make_app
from test_core_failures import find_host
from test_core_overload import trip


def skip_arm(monkeypatch, owner: type, name: str, condition: str) -> None:
    """Replace ``owner.name`` by a copy whose ``if condition`` arm is never
    taken (``if False and condition``), for the rest of the test."""
    function = owner.__dict__[name]
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(f"if {condition}") == 1, (name, condition)
    source = source.replace(f"if {condition}", f"if False and {condition}")
    code = compile(
        source,
        f"<{owner.__name__}.{name} without one arm>",
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def settle_to_end(app, seconds: float = 30.0) -> list[str]:
    """Let the application run quiet, then the guarantee's verdict."""
    app.kernel.run(until=app.kernel.now + seconds)
    return guarantee_violations(app)


def outcome(app, task, expected) -> list[str]:
    """What went wrong with ``task`` and the run, after 30 quiet seconds."""
    violations = settle_to_end(app)
    found = []
    if not task.done():
        found.append("the call never completed")
    elif task.completion.result() != expected:
        found.append(f"the call returned {task.completion.result()!r}")
    if None in app.broker.topic(app.topic_name).partitions:
        found.append("a recovery copy went to a queue named None")
    return found + violations


class Gate(Actor):
    """Fails every call while ``broken``; counts the runs of each job."""

    broken = False
    runs: dict = {}

    async def send(self, ctx, job):
        if Gate.broken:
            raise RuntimeError("downstream unavailable")
        Gate.runs[job] = Gate.runs.get(job, 0) + 1
        return f"sent:{job}"


class Sleeper(Actor):
    async def nap(self, ctx, seconds):
        await ctx.sleep(seconds)
        return seconds


class Caller(Actor):
    """Calls ``Sleeper.nap``; fails at once while ``broken``."""

    broken = False

    async def main(self, ctx, seconds):
        if Caller.broken:
            raise RuntimeError("tripping the breaker")
        return await ctx.call(actor_proxy("Sleeper", "s"), "nap", seconds)


def placed_on(app, type_name: str, method: str, hosts, arg="warm-up"):
    """One actor ref of ``type_name`` per component in ``hosts``, each
    placed there by a first (succeeding) call of ``method`` with ``arg``."""
    app.client()
    app.settle()
    refs: dict[str, object] = {}
    index = 0
    while not set(hosts) <= set(refs):
        ref = actor_proxy(type_name, f"{type_name.lower()}{index}")
        index += 1
        app.run_call(ref, method, arg)
        host = find_host(app, ref)
        if host not in refs:
            refs[host] = ref
    return [refs[host] for host in hosts]


# ---------------------------------------------------------------------------
# a breaker-diverted call whose host dies (reconciler: already parked;
# redelivery: duplicate letters)
# ---------------------------------------------------------------------------
def diverted_call_whose_host_dies(monkeypatch, redelivery_limit):
    """Open the ``Gate.send`` breakers of both hosts, divert a call on
    ``w1`` to the parking lot, kill ``w1`` and let recovery run. Returns the
    application, the parked call's task and its request id."""
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1000.0)
    Gate.broken, Gate.runs = False, {}
    kernel, app = make_app(
        seed=31, breaker_threshold=2, redelivery_limit=redelivery_limit
    )
    app.register_actor(Gate)
    app.add_component("w1", ("Gate",))
    app.add_component("w2", ("Gate",))
    on_w1, on_w2 = placed_on(app, "Gate", "send", ("w1", "w2"))
    client = app.client()
    Gate.broken = True
    trip(kernel, app, on_w1, 2)
    trip(kernel, app, on_w2, 2)
    Gate.broken = False
    task = kernel.spawn(client.invoke(None, on_w1, "send", ("job",)), client.process)
    kernel.run(until=kernel.now + 1.0)
    [event] = app.trace.where("deadletter.parked")
    app.kill_component("w1")
    kernel.run(until=kernel.now + 5.0)
    return app, task, event["request"]


def parked_call_is_not_copied_again(monkeypatch) -> list[str]:
    """With a redelivery limit, a parked call stranded by its host's death
    is left to the parking lot: no recovery copy, one letter, and one run
    once it is redelivered."""
    app, task, request = diverted_call_whose_host_dies(monkeypatch, 5)
    found = []
    copies = app.trace.where("reconcile.copy", request=request)
    if copies:
        found.append(f"recovery copied the parked call {len(copies)} time(s)")
    depth = app.stats("overload")["dead_letter_depth"]
    if depth != 1:
        found.append(f"{depth} letters parked for one call")
    app.redeliver_dead_letters()
    found += outcome(app, task, "sent:job")
    if Gate.runs.get("job") != 1:
        found.append(f"the call ran {Gate.runs.get('job', 0)} times")
    return found


def duplicate_letters_replay_once(monkeypatch) -> list[str]:
    """Without a redelivery limit, recovery copies the parked call to
    ``w2``, whose breaker parks it again: two letters, one ``(id, step)``.
    Redelivery replays it once and counts the other as a duplicate."""
    app, task, request = diverted_call_whose_host_dies(monkeypatch, None)
    found = []
    depth = app.stats("overload")["dead_letter_depth"]
    if depth != 2:
        found.append(f"{depth} letters parked, expected the call's two")
    summary = app.redeliver_dead_letters()
    if (summary["replayed"], summary["skipped_duplicate"]) != (1, 1):
        found.append(f"redelivery summary {summary}")
    found += outcome(app, task, "sent:job")
    duplicates = app.trace.where("request.duplicate", request=request)
    if duplicates:
        found.append(f"{len(duplicates)} duplicate replay(s) reached a host")
    if Gate.runs.get("job") != 1:
        found.append(f"the call ran {Gate.runs.get('job', 0)} times")
    return found


def test_a_parked_call_stranded_by_its_hosts_death_is_not_copied_again(
    monkeypatch,
):
    assert parked_call_is_not_copied_again(monkeypatch) == []


def test_two_letters_for_one_call_replay_it_once(monkeypatch):
    assert duplicate_letters_replay_once(monkeypatch) == []


# ---------------------------------------------------------------------------
# a parked recovery copy whose happen-before callee settled meanwhile
# (redelivery: the annotation is dropped)
# ---------------------------------------------------------------------------
def settled_callee_annotation_is_dropped(monkeypatch) -> list[str]:
    """``Caller.main`` waits on a 2 s ``Sleeper.nap``; ``w1`` dies
    meanwhile, and the recovery copy of ``main`` -- annotated to wait for
    that nap -- is diverted by ``w2``'s open breaker. The nap answers
    ``w2``; then ``w2`` dies too and comes back with no memory of that
    answer. Redelivery must replay ``main`` without the annotation, or the
    replay waits for an answer that never comes again."""
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1000.0)
    Caller.broken = False
    kernel, app = make_app(seed=32, breaker_threshold=2, redelivery_limit=5)
    app.register_actor(Caller)
    app.register_actor(Sleeper)
    app.add_component("w1", ("Caller",))
    app.add_component("w2", ("Caller",))
    app.add_component("sleeper", ("Sleeper",))
    on_w1, on_w2 = placed_on(app, "Caller", "main", ("w1", "w2"), 0.0)
    Caller.broken = True
    trip(kernel, app, on_w2, 2, "main")
    Caller.broken = False
    client = app.client()
    task = kernel.spawn(client.invoke(None, on_w1, "main", (2.0,)), client.process)
    kernel.run(until=kernel.now + 0.5)  # the nap is running
    app.kill_component("w1")
    kernel.run(until=kernel.now + 5.0)  # copy diverted; the nap answered
    found = []
    letters = app.stats("overload")["dead_letters"]
    if len(letters) != 1:
        found.append(f"{len(letters)} letters parked, expected one")
    app.kill_component("w2")
    kernel.run(until=kernel.now + 2.0)
    app.restart_component("w2")
    app.settle()
    kernel.run(until=kernel.now + 2.0)
    app.redeliver_dead_letters()
    kernel.run(until=kernel.now + 10.0)
    return found + outcome(app, task, 2.0)


def test_a_redelivered_copy_drops_its_settled_callee_annotation(monkeypatch):
    assert settled_callee_annotation_is_dropped(monkeypatch) == []


# ---------------------------------------------------------------------------
# a reconciliation overtaken by a newer generation (reconciler: superseded)
# ---------------------------------------------------------------------------
def overtaken_reconciliation_writes_nothing(monkeypatch) -> list[str]:
    """A slow reconciliation (2 s of scan cost) is overtaken by a join.
    Its leader must leave recovery to the newer generation's: the stranded
    call is copied once, by that leader, and still completes."""
    kernel, app = make_app(seed=33, reconcile_base=Latency.fixed(2.0))
    app.register_actor(Sleeper)
    app.add_component("w1", ("Sleeper",))
    app.add_component("w2", ("Sleeper",))
    [on_w1] = placed_on(app, "Sleeper", "nap", ("w1",), 0.0)
    client = app.client()
    task = kernel.spawn(client.invoke(None, on_w1, "nap", (1.0,)), client.process)
    kernel.run(until=kernel.now + 0.5)
    app.kill_component("w1")
    while not app.trace.where("reconcile.start", failed=["w1#0"]):
        kernel.run(until=kernel.now + 0.05)
    app.add_component("w3", ("Sleeper",))
    found = outcome(app, task, 1.0)
    copies = [event["request"] for event in app.trace.where("reconcile.copy")]
    if len(copies) != len(set(copies)):
        found.append(f"a stranded call was copied twice: {copies}")
    return found


def test_a_reconciliation_overtaken_by_a_join_copies_nothing(monkeypatch):
    assert overtaken_reconciliation_writes_nothing(monkeypatch) == []


# ---------------------------------------------------------------------------
# a dead queue that retention emptied (reconciler: dropped)
# ---------------------------------------------------------------------------
def expired_dead_queue_is_dropped(monkeypatch) -> list[str]:
    """A dead component's queue outlives its death while it holds
    unexpired records (the completion evidence), and goes at the first
    reconciliation after retention expired them."""
    config = KarConfig.fast_test()
    config = config.with_overrides(
        broker=replace(config.broker, retention_seconds=5.0),
        dedup_retention_slack=1.0,
    )
    kernel, app = make_app(seed=34, config=config)
    app.register_actor(Sleeper)
    app.add_component("w1", ("Sleeper",))
    app.add_component("w2", ("Sleeper",))
    [on_w1] = placed_on(app, "Sleeper", "nap", ("w1",), 0.0)
    app.kill_component("w1")
    app.settle()
    topic = app.broker.topic(app.topic_name)
    found = []
    if "w1#0" not in topic.partitions:
        found.append("the dead queue went while it held unexpired records")
    kernel.run(until=kernel.now + 10.0)  # past retention
    app.add_component("w3", ("Sleeper",))
    app.settle()
    if "w1#0" in topic.partitions:
        found.append("the expired dead queue outlived the next reconciliation")
    if app.run_call(on_w1, "nap", 0.0) != 0.0:
        found.append("the actor did not answer after recovery")
    return found + settle_to_end(app)


def test_a_dead_queue_goes_once_retention_empties_it(monkeypatch):
    assert expired_dead_queue_is_dropped(monkeypatch) == []


# ---------------------------------------------------------------------------
# a response whose caller's type has no live host for a while (router)
# ---------------------------------------------------------------------------
def response_waits_for_a_caller_host(monkeypatch) -> list[str]:
    """``Caller.main`` waits on a 2 s ``Sleeper.nap`` and ``Caller``'s only
    host dies meanwhile. The nap's answer has nowhere to go until the host
    restarts: the response path paces and retries, then delivers it to the
    recovered ``main``."""
    Caller.broken = False
    kernel, app = make_app(seed=35)
    app.register_actor(Caller)
    app.register_actor(Sleeper)
    app.add_component("w1", ("Caller",))
    app.add_component("sleeper", ("Sleeper",))
    client = app.client()
    app.settle()
    task = kernel.spawn(
        client.invoke(None, actor_proxy("Caller", "x"), "main", (2.0,)),
        client.process,
    )
    kernel.run(until=kernel.now + 0.5)
    app.kill_component("w1")
    kernel.run(until=kernel.now + 6.0)  # the nap ended with no Caller host
    app.restart_component("w1")
    return outcome(app, task, 2.0)


def test_a_response_waits_for_its_callers_type_to_have_a_host(monkeypatch):
    assert response_waits_for_a_caller_host(monkeypatch) == []


# ---------------------------------------------------------------------------
# a host evicted while recovery or a response resolves a placement onto it
# (reconciler and response path: no live incarnation)
# ---------------------------------------------------------------------------
# The group's member set changes the moment a member is evicted, its
# generation only after the next rebalance. A router that memoized its
# candidates before an eviction and its incarnations after it finds no
# incarnation for a name it just resolved. The three scenarios below time an
# eviction into a placement lookup; their timings were found by sweeping
# the scan cost or the callee's duration in 0.1 ms steps with the arm
# instrumented (each hits it over a window of about 0.5 ms). A schedule
# change moves them: the table test below then fails for the first two
# until they are re-found.


def stranded_call_replaced_onto_an_evicted_host(monkeypatch) -> list[str]:
    """``w1`` dies with a 3 s call in flight; ``w2``, the only other host,
    is evicted inside reconciliation's re-placement of it. The call waits
    in the unplaced queue until ``w1`` is back."""
    kernel, app = make_app(seed=37, reconcile_base=Latency.fixed(0.0648))
    app.register_actor(Sleeper)
    app.add_component("w1", ("Sleeper",))
    app.add_component("w2", ("Sleeper",))
    [on_w1] = placed_on(app, "Sleeper", "nap", ("w1",), 0.0)
    client = app.client()
    start = kernel.now
    task = kernel.spawn(client.invoke(None, on_w1, "nap", (3.0,)), client.process)
    kernel.run(until=start + 0.1)
    app.kill_component("w1")
    kernel.run(until=start + 0.5)
    app.kill_component("w2")
    kernel.run(until=start + 4.0)
    app.restart_component("w1")
    return outcome(app, task, 3.0)


def response_replaced_onto_an_evicted_host(monkeypatch) -> list[str]:
    """``Caller.main`` on ``w1`` waits on a ``Sleeper.nap``; ``w1`` dies
    and recovery parks ``main``'s copy on another host until the nap
    answers. That host is evicted inside the response's re-placement of
    ``main``'s actor: the response must find the host recovery moves
    ``main`` to next, or that copy waits for it forever."""
    kernel, app = make_app(seed=36)
    app.register_actor(Sleeper)
    app.register_actor(Caller)
    hosts = ("w1", "w2", "w3")
    for name in hosts:
        app.add_component(name, ("Caller",))
    app.add_component("sleeper", ("Sleeper",))
    [on_w1] = placed_on(app, "Caller", "main", ("w1",), 0.0)
    client = app.client()
    start = kernel.now
    task = kernel.spawn(client.invoke(None, on_w1, "main", (2.8555,)), client.process)
    kernel.run(until=start + 0.1)
    app.kill_component("w1")
    kernel.run(until=start + 2.0)
    [copy] = app.trace.where("reconcile.copy")
    app.kill_component(copy["target"].rpartition("#")[0])
    kernel.run(until=start + 4.0)
    app.restart_component("w1")
    return outcome(app, task, 2.8555)


def calls_routed_onto_an_evicted_host(monkeypatch) -> list[str]:
    """``w2`` is killed; eight calls to fresh actors wait out a join's pause
    and route the moment it lifts, and ``w2``'s eviction lands inside their
    placement lookups. Each call is re-routed to ``w1``."""
    kernel, app = make_app(seed=38, reconcile_base=Latency.fixed(0.1518))
    app.register_actor(Sleeper)
    app.add_component("w1", ("Sleeper",))
    app.add_component("w2", ("Sleeper",))
    client = app.client()
    app.settle()
    start = kernel.now
    kernel.run(until=start + 0.4)
    app.kill_component("w2")
    kernel.run(until=start + 1.0)
    app.add_component("w3", ())
    kernel.run(until=start + 1.1)
    calls = [
        kernel.spawn(
            client.invoke(None, actor_proxy("Sleeper", f"fresh{n}"), "nap", (0.0,)),
            client.process,
        )
        for n in range(8)
    ]

    async def every_call():
        return await kernel.gather(calls)

    return outcome(app, kernel.spawn(every_call(), client.process), [0.0] * 8)


def test_recovery_of_a_call_whose_new_host_is_evicted_mid_lookup(monkeypatch):
    assert stranded_call_replaced_onto_an_evicted_host(monkeypatch) == []


def test_a_response_whose_callers_new_host_is_evicted_mid_lookup(monkeypatch):
    assert response_replaced_onto_an_evicted_host(monkeypatch) == []


def test_calls_routed_onto_an_evicted_host_are_rerouted(monkeypatch):
    assert calls_routed_onto_an_evicted_host(monkeypatch) == []


ARMS = [
    (
        "reconcile.already_parked",
        (Reconciler, "run", "request.dedup_key in parked_index"),
        parked_call_is_not_copied_again,
    ),
    (
        "reconcile.superseded",
        (Reconciler, "run", "coordinator.generation != info.generation"),
        overtaken_reconciliation_writes_nothing,
    ),
    (
        "reconcile.drop_empty_dead_queue",
        (Reconciler, "run", "not remaining"),
        expired_dead_queue_is_dropped,
    ),
    (
        "response.no_live_caller_host",
        (Router, "_resolve_response_target", "not candidates"),
        response_waits_for_a_caller_host,
    ),
    (
        "reconcile.no_live_incarnation",
        (Reconciler, "run", "target_member is None"),
        stranded_call_replaced_onto_an_evicted_host,
    ),
    (
        "response.no_live_incarnation",
        (Router, "_resolve_response_target", "target is None"),
        response_replaced_onto_an_evicted_host,
    ),
    (
        "redeliver.skipped_duplicate",
        (KarApplication, "redeliver_dead_letters_async", "request.dedup_key in seen"),
        duplicate_letters_replay_once,
    ),
    (
        "redeliver.without_after_callee",
        (
            KarApplication,
            "redeliver_dead_letters_async",
            "request.after_callee is not None and not (",
        ),
        settled_callee_annotation_is_dropped,
    ),
]


#: Arms whose skipping no scenario detects, and why.
UNKILLED = {
    "route.no_live_incarnation": (
        (Router, "route_request", "target_member is None"),
        "reached by calls_routed_onto_an_evicted_host, and skipping it changes "
        "no outcome: the send to a queue named None fails its membership "
        "guard, and the StaleRouteError arm below it does the same "
        "invalidate-and-retry, one produce round trip later",
    ),
    "mailbox.outer_frames_open": (
        (ActorMailbox, "complete_frame", "self.stack"),
        "not reached under retry orchestration: a reentrant frame left open "
        "by a dead caller's attempt is that caller's retry's pending callee, "
        "so the retry, and with it the root frame, waits until it ends "
        "(Section 4.3's happen-before). Only the at-least-once baseline "
        "reaches it, where the root's chain then never releases the lock",
    ),
}


@pytest.mark.parametrize(
    "arm, scenario", [row[1:] for row in ARMS], ids=[row[0] for row in ARMS]
)
def test_each_arm_is_needed_by_its_scenario(arm, scenario, monkeypatch):
    skip_arm(monkeypatch, *arm)
    try:
        found = scenario(monkeypatch)
    except Exception as error:  # noqa: BLE001 - a mutant may crash the run
        found = [f"raised {error!r}"]
    assert found, f"the scenario passes with {arm[2]!r} skipped"


@pytest.mark.parametrize(
    "arm", [row[0] for row in UNKILLED.values()], ids=list(UNKILLED)
)
def test_each_unkilled_arm_still_exists(arm, monkeypatch):
    skip_arm(monkeypatch, *arm)
