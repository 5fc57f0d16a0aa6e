"""Overload control: retry budgets, breakers, dead letters, admission."""

from __future__ import annotations

from random import Random

import pytest

from helpers import Latch, make_app, run, unexpired_in_order
from oracle import check_guarantee
from repro.core import Actor, ActorMethodError, KarConfig, actor_proxy, overload
from repro.core.dispatcher import ActorMailbox
from repro.core.envelope import Request
from repro.core.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    DeadLetter,
    OverloadGuard,
    RetryBudget,
    UNPLACEABLE_RETRY_DELAY,
    Unguarded,
)
from repro.core.refs import ActorRef
from repro.sim import Kernel


# ----------------------------------------------------------------------
# unit: backoff policy
# ----------------------------------------------------------------------
def test_backoff_full_jitter_bounds():
    policy = BackoffPolicy(base=0.1, cap=2.0)
    assert policy.bound(0) == pytest.approx(0.1)
    assert policy.bound(1) == pytest.approx(0.2)
    assert policy.bound(3) == pytest.approx(0.8)
    assert policy.bound(10) == pytest.approx(2.0)  # capped
    assert policy.bound(1000) == pytest.approx(2.0)  # exponent clamped too
    rng = Random(7)
    for attempt in range(12):
        for _ in range(50):
            delay = policy.delay(attempt, rng)
            assert 0.0 <= delay <= policy.bound(attempt)


# ----------------------------------------------------------------------
# unit: retry budget
# ----------------------------------------------------------------------
def test_retry_budget_caps_amplification_and_defers():
    budget = RetryBudget(ratio=0.5, burst=2.0, floor_per_sec=0.0)
    # Starts full: two retries spendable immediately, the third defers.
    assert budget.try_spend(0.0)
    assert budget.try_spend(0.0)
    assert not budget.try_spend(0.0)
    assert budget.deferred == 1
    # Two first attempts deposit 0.5 each -> one more retry is covered.
    budget.deposit(0.0)
    budget.deposit(0.0)
    assert budget.try_spend(0.0)
    assert not budget.try_spend(0.0)
    assert budget.spent == 3
    # Deposits never exceed the burst cap.
    for _ in range(100):
        budget.deposit(0.0)
    assert budget.balance(0.0) == pytest.approx(2.0)


def test_retry_budget_floor_trickle_unsticks_recovery():
    budget = RetryBudget(ratio=0.1, burst=5.0, floor_per_sec=2.0)
    while budget.try_spend(0.0):
        pass
    assert not budget.try_spend(0.0)
    # No first attempts at all, but the clock alone re-earns a token.
    assert budget.try_spend(0.6)


# ----------------------------------------------------------------------
# unit: circuit breaker state machine
# ----------------------------------------------------------------------
def test_breaker_opens_closes_through_probe():
    breaker = CircuitBreaker(threshold=3, cooldown=10.0)
    for n in range(3):
        assert breaker.admit(f"r{n}", float(n))
        breaker.record_failure(f"r{n}", float(n), "boom")
    assert breaker.state == BREAKER_OPEN
    assert not breaker.admit("r3", 5.0)  # cooldown not elapsed
    assert breaker.admit("r4", 12.1)  # past cooldown: r4 is the probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.record_success("r4", 12.2) == "half_open->closed"
    assert breaker.state == BREAKER_CLOSED
    assert breaker.consecutive_failures == 0


def test_halfopen_probe_failure_reopens_with_fresh_cooldown():
    breaker = CircuitBreaker(threshold=1, cooldown=10.0)
    breaker.record_failure("r0", 0.0, "boom")
    assert breaker.state == BREAKER_OPEN
    assert breaker.admit("probe", 10.0)  # cooldown from t=0 elapsed
    assert breaker.record_failure("probe", 11.0, "boom") == "half_open->open"
    # The cooldown clock restarted at the probe's failure (t=11), not at
    # the original trip (t=0): t=20.9 is still inside the fresh window.
    assert not breaker.admit("r1", 20.9)
    assert breaker.admit("r2", 21.0)
    assert breaker.state == BREAKER_HALF_OPEN


def test_halfopen_admits_exactly_one_probe_and_ignores_stragglers():
    breaker = CircuitBreaker(threshold=1, cooldown=1.0)
    breaker.record_failure("r0", 0.0, "boom")
    admitted = [breaker.admit(f"c{n}", 2.0) for n in range(3)]
    assert admitted == [True, False, False]  # c0 is the one probe
    # A straggler's outcome (admitted before the trip) moves nothing.
    breaker.record_failure("ancient", 2.1, "boom")
    assert breaker.state == BREAKER_HALF_OPEN
    # Only the designated probe's success closes the circuit.
    assert breaker.record_success("c1", 2.2) is None
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.record_success("c0", 2.3) == "half_open->closed"


def guard_with(**overrides) -> OverloadGuard:
    return OverloadGuard(KarConfig.fast_test().with_overrides(**overrides), Kernel())


def test_guard_admits_and_records_success_inline_while_closed():
    """``OverloadGuard`` answers a closed breaker itself (no
    ``CircuitBreaker.admit`` / ``record_success`` call); the state machine
    it skips must still hold: a success clears the failure streak."""
    guard = guard_with(breaker_threshold=3)
    request = _request("c0")
    assert guard.breaker_diverts(request, 0.0) is None  # made on first use
    breaker = guard.breakers[("T", "m")]
    assert breaker.state == BREAKER_CLOSED
    guard.record_failure(request, "boom", 0.1)
    guard.record_failure(request, "boom", 0.2)
    assert guard.record_success(request, 0.3) is None
    assert breaker.consecutive_failures == 0
    guard.record_failure(request, "boom", 0.4)
    guard.record_failure(request, "boom", 0.5)
    assert breaker.state == BREAKER_CLOSED  # the streak restarted at 0.3
    assert guard.diverted == 0 and breaker.transitions == []


def test_guard_open_diverts_and_half_open_admits_exactly_one_probe(monkeypatch):
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1.0)
    guard = guard_with(breaker_threshold=1)
    counted = guard._open_breakers
    assert counted.count == 0
    assert guard.record_failure(_request("r0"), "boom", 0.0) == "closed->open"
    breaker = guard.breakers[("T", "m")]
    assert counted.count == 1
    assert guard.breaker_diverts(_request("early"), 0.5) is breaker
    # Past the cooldown: the first arrival is the one probe.
    outcomes = [guard.breaker_diverts(_request(f"c{n}"), 2.0) for n in range(3)]
    assert outcomes == [None, breaker, breaker]
    assert breaker.state == BREAKER_HALF_OPEN and counted.count == 0
    assert guard.diverted == 3
    # A non-probe's success moves nothing; the probe's closes the circuit.
    assert guard.record_success(_request("c1"), 2.1) is None
    assert breaker.state == BREAKER_HALF_OPEN
    assert guard.record_success(_request("c0"), 2.2) == "half_open->closed"
    assert guard.breaker_diverts(_request("after"), 2.3) is None
    # Open again, then force-closed by redelivery: the count follows.
    guard.record_failure(_request("r1"), "boom", 3.0)
    assert counted.count == 1
    assert guard.reset_breakers(3.1) == 1 and counted.count == 0


def test_admission_reads_no_component_while_no_breaker_is_open(monkeypatch):
    """``KarApi`` admission is one check while no breaker is open anywhere;
    once one opens it scans the components for it, and a reset ends that."""
    kernel, app = make_app(seed=17, breaker_threshold=1)
    name = app.register_actor(Latch)
    worker = app.add_component("w1", (name,))
    api = app.api()
    app.settle()
    scans = []
    monkeypatch.setattr(
        type(worker), "alive", property(lambda self: scans.append(self) or True)
    )
    assert api.breaker_retry_after(name, "set") is None
    assert scans == []
    worker.overload.record_failure(
        Request("r", 0, actor_proxy(name, "x"), "set", (), None, None, None, None),
        "boom",
        kernel.now,
    )
    assert api.breaker_retry_after(name, "set") == pytest.approx(
        overload.BREAKER_COOLDOWN
    )
    assert scans  # the open breaker is found by the scan
    app.redeliver_dead_letters()  # force-closes every breaker
    scans.clear()
    assert api.breaker_retry_after(name, "set") is None
    assert scans == []


# ----------------------------------------------------------------------
# unit: mailbox admission control
# ----------------------------------------------------------------------
def _request(request_id: str, copy_epoch: int = 0) -> Request:
    return Request(
        request_id=request_id,
        step=0,
        actor=ActorRef("T", "a"),
        method="m",
        args=(),
        return_address=None,
        reply_to=None,
        caller_actor=None,
        caller_member=None,
        copy_epoch=copy_epoch,
    )


def test_mailbox_sheds_oldest_retries_never_first_attempts():
    mailbox = ActorMailbox(capacity=2)
    assert mailbox.try_admit(_request("holder"))  # takes the lock
    for request in (
        _request("f1"),
        _request("c1", copy_epoch=3),
        _request("f2"),
        _request("c2", copy_epoch=5),
        _request("f3"),
    ):
        assert not mailbox.try_admit(request)
    shed = mailbox.shed_overflow()
    # Oldest retries first; first attempts survive even above capacity.
    assert [r.request_id for r in shed] == ["c1", "c2"]
    assert [r.request_id for r in mailbox.pending] == ["f1", "f2", "f3"]
    # Under capacity: nothing to shed.
    assert ActorMailbox(capacity=2).shed_overflow() == []
    # Unbounded mailbox never sheds.
    unbounded = ActorMailbox()
    unbounded.try_admit(_request("holder"))
    for n in range(10):
        unbounded.try_admit(_request(f"c{n}", copy_epoch=1))
    assert unbounded.shed_overflow() == []


def test_a_shed_request_clears_its_shed_count_when_it_runs():
    """``_execute`` clears a shed count only when the guard holds one; a
    shed retry that finally runs must still clear its own."""
    kernel, app = make_app(seed=18)
    name = app.register_actor(Latch)
    worker = app.add_component("w1", (name,))
    app.settle()
    ref = actor_proxy(name, "x")
    app.run_call(ref, "set", 1)
    guard = worker.overload
    assert guard._shed_attempts == {}
    request = Request("shed", 0, ref, "set", (7,), None, None, None, None, copy_epoch=1)
    worker._handled.observe(request.dedup_key, kernel.now)  # as when it was shed
    kernel.spawn(worker._requeue_shed(request), worker.process)
    kernel.run(until=kernel.now)
    assert guard._shed_attempts == {("shed", 0): 1}
    kernel.run(until=kernel.now + 5.0)
    assert guard._shed_attempts == {}
    assert (guard.sheds, guard.shed_requeues) == (1, 1)
    assert app.run_call(ref, "get") == 7
    check_guarantee(app)


# ----------------------------------------------------------------------
# integration: breaker divert -> dead letters -> replay, exactly once
# ----------------------------------------------------------------------
class Flaky(Actor):
    healthy = False
    executions: dict = {}

    async def send(self, ctx, job):
        if not Flaky.healthy:
            raise RuntimeError("downstream unavailable")
        Flaky.executions[job] = Flaky.executions.get(job, 0) + 1
        return f"sent:{job}"


class SlowProbe(Actor):
    executions: dict = {}
    healthy = False

    async def send(self, ctx, job):
        if not SlowProbe.healthy:
            raise RuntimeError("downstream unavailable")
        await ctx.sleep(0.5)
        SlowProbe.executions[job] = SlowProbe.executions.get(job, 0) + 1
        return f"sent:{job}"


def trip(kernel, app, ref, calls, method="send"):
    """``calls`` calls that fail in ``method``: the errors are their
    answers, not crashed tasks."""
    client = app.client()

    async def failing_call(n):
        with pytest.raises(ActorMethodError):
            await client.invoke(None, ref, method, (f"warm{n}",))

    for n in range(calls):
        run(kernel, failing_call(n), client.process)


def test_breaker_diverts_to_dead_letters_and_replays_exactly_once():
    Flaky.healthy = False
    Flaky.executions = {}
    kernel, app = make_app(seed=11, breaker_threshold=3)
    name = app.register_actor(Flaky)
    app.add_component("w1", (name,))
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "gateway")

    trip(kernel, app, ref, 3)

    # Breaker is open on the worker: these divert to the parking lot.
    parked_tasks = [
        kernel.spawn(
            client.invoke(None, ref, "send", (f"job{n}",), True),
            client.process,
            name=f"parked{n}",
        )
        for n in range(2)
    ]
    kernel.run(until=kernel.now + 3.0)
    stats = app.stats("overload")
    assert stats["dead_letter_depth"] == 2
    assert stats["diverted"] == 2
    assert stats["breakers_open"] == 1
    for letter in stats["dead_letters"]:
        assert letter["reason"] == "breaker_open"
        assert letter["failure_history"]  # why the circuit tripped
    assert not any(task.done() for task in parked_tasks)

    Flaky.healthy = True
    summary = app.redeliver_dead_letters()
    assert summary == {
        "parked": 2,
        "replayed": 2,
        "skipped_settled": 0,
        "skipped_duplicate": 0,
        "breakers_reset": 1,
    }
    results = kernel.run_until_complete(kernel.gather(parked_tasks), timeout=120.0)
    assert sorted(results) == ["sent:job0", "sent:job1"]
    assert Flaky.executions == {"job0": 1, "job1": 1}
    stats = app.stats("overload")
    assert stats["dead_letter_depth"] == 0
    assert stats["dead_letters_replayed"] == 2
    assert stats["breakers_closed"] == 1
    check_guarantee(app)


def test_halfopen_concurrent_arrivals_admit_one_probe_end_to_end(monkeypatch):
    SlowProbe.healthy = False
    SlowProbe.executions = {}
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1.0)
    kernel, app = make_app(seed=12, breaker_threshold=2)
    name = app.register_actor(SlowProbe)
    app.add_component("w1", (name,))
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "gateway")

    trip(kernel, app, ref, 2)
    SlowProbe.healthy = True
    kernel.run(until=kernel.now + 1.2)  # past the cooldown

    # Three concurrent arrivals: the first becomes the half-open probe
    # (and executes, slowly); the other two divert while it is in flight.
    tasks = [
        kernel.spawn(
            client.invoke(None, ref, "send", (f"job{n}",), True),
            client.process,
            name=f"halfopen{n}",
        )
        for n in range(3)
    ]
    kernel.run_until_complete(tasks[0], timeout=30.0)
    stats = app.stats("overload")
    assert stats["dead_letter_depth"] == 2
    assert stats["breakers_closed"] == 1  # the probe's success closed it
    summary = app.redeliver_dead_letters()
    assert summary["replayed"] == 2
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=120.0)
    assert sorted(results) == ["sent:job0", "sent:job1", "sent:job2"]
    assert SlowProbe.executions == {"job0": 1, "job1": 1, "job2": 1}
    check_guarantee(app)


def test_replay_of_settled_call_is_deduped():
    kernel, app = make_app(seed=13)
    name = app.register_actor(Latch)
    app.add_component("w1", (name,))
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "x")
    app.run_call(ref, "set", 41)
    assert app.run_call(ref, "get") == 41

    # Park a letter for the *settled* set(41) call (as a late straggler
    # diverted before its duplicate-detection would have caught it).
    topic = app.broker.topics[app.topic_name]
    settled = next(
        record.value
        for record in unexpired_in_order(topic, kernel.now)
        if isinstance(record.value, Request) and record.value.method == "set"
    )
    letter = DeadLetter(
        request=settled,
        reason="breaker_open",
        parked_at=kernel.now,
        attempts=0,
        failure_history=((kernel.now, "synthetic"),),
        parked_by="test",
    )
    run(kernel, app.park_dead_letter(letter, client.member_id), client.process)
    assert app.stats("overload")["dead_letter_depth"] == 1

    summary = app.redeliver_dead_letters()
    assert summary["skipped_settled"] == 1
    assert summary["replayed"] == 0
    kernel.run(until=kernel.now + 2.0)
    # No double execution: the settled outcome is untouched.
    assert app.run_call(ref, "get") == 41
    assert app.stats("overload")["dead_letter_depth"] == 0
    check_guarantee(app)


# ----------------------------------------------------------------------
# integration: poison pill parks at the redelivery limit, then replays
# ----------------------------------------------------------------------
class Poison(Actor):
    healed = False
    executions: dict = {}

    async def run(self, ctx, job):
        if not Poison.healed:
            ctx._component.fail()  # crash the hosting component mid-method
            await ctx.sleep(3600.0)  # never reached; the process is dead
        Poison.executions[job] = Poison.executions.get(job, 0) + 1
        return f"done:{job}"


def test_poison_pill_parks_at_redelivery_limit_then_replays():
    Poison.healed = False
    Poison.executions = {}
    kernel, app = make_app(seed=14, redelivery_limit=2)
    name = app.register_actor(Poison)
    app.add_component("victim", (name,))
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "p0")

    task = kernel.spawn(
        client.invoke(None, ref, "run", ("job",), True),
        client.process,
        name="poison-call",
    )
    # Supervisor loop: restart the victim whenever it dies, until the
    # reconciler gives up on the request and parks it.
    deadline = kernel.now + 120.0
    while app.stats("overload")["dead_letter_depth"] == 0:
        assert kernel.now < deadline, "poison request never parked"
        if not app.components["victim"].alive:
            app.restart_component("victim")
        kernel.run(until=kernel.now + 0.5)

    [letter] = app.stats("overload")["dead_letters"]
    assert letter["reason"] == "redelivery_limit"
    assert letter["attempts"] == 2
    assert len(letter["failure_history"]) == 3  # two copies + the verdict
    assert not task.done()

    # Fault cleared: replay the parked call to exactly-once completion.
    Poison.healed = True
    if not app.components["victim"].alive:
        app.restart_component("victim")
    app.settle()
    summary = app.redeliver_dead_letters()
    assert summary["replayed"] == 1
    assert kernel.run_until_complete(task, timeout=120.0) == "done:job"
    assert Poison.executions == {"job": 1}
    assert app.stats("overload")["dead_letter_depth"] == 0
    kernel.run(until=kernel.now + 5.0)
    check_guarantee(app)


# ----------------------------------------------------------------------
# integration: jittered routing retries replace the fixed sleep
# ----------------------------------------------------------------------
def test_unplaced_call_is_backoff_paced_until_a_host_joins():
    kernel, app = make_app(seed=15)
    name = app.register_actor(Latch)
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "x")

    # No component hosts Latch yet: routing retries under the budget.
    task = kernel.spawn(
        client.invoke(None, ref, "set", (7,), True),
        client.process,
        name="unplaced-call",
    )
    kernel.run(until=kernel.now + 2.0)
    assert not task.done()
    stats = app.stats("overload")
    assert stats["retries_spent"] >= 1  # paced by the budget, not a constant

    app.add_component("w1", (name,))
    kernel.run_until_complete(task, timeout=60.0)
    assert app.run_call(ref, "get") == 7


# ----------------------------------------------------------------------
# the ablation switch: one policy object either way
# ----------------------------------------------------------------------
def test_unguarded_policy_waits_a_fixed_delay_and_reports_nothing():
    """``overload_guard=False`` swaps the policy object, nothing else: an
    unplaceable call re-checks every fixed delay, mailboxes are unbounded,
    no breaker ever diverts, and the family carries only the parking lot."""
    kernel, app = make_app(
        seed=15, overload_guard=False, breaker_threshold=1, redelivery_limit=1
    )
    name = app.register_actor(Latch)
    client = app.client()
    app.settle()
    policy = client.overload
    assert type(policy) is Unguarded
    assert policy.mailbox_capacity is None and policy.redelivery_limit is None

    ref = actor_proxy(name, "x")
    started = kernel.now
    task = kernel.spawn(
        client.invoke(None, ref, "set", (7,), True), client.process, name="unplaced"
    )
    kernel.run(until=started + 2.0)
    assert not task.done()
    app.add_component("w1", (name,))
    app.settle()
    kernel.run_until_complete(task, timeout=60.0)
    assert app.run_call(ref, "get") == 7
    assert policy.budget.first_attempts == 0  # no deposit
    assert policy.breaker_diverts(_request("r1"), kernel.now) is None

    async def timed_pause():
        before = kernel.now
        await policy.pace_retry(3)
        immediate = kernel.now - before
        await policy.pace_unplaceable(3)
        return immediate, kernel.now - before

    assert run(kernel, timed_pause()) == (0.0, UNPLACEABLE_RETRY_DELAY)
    assert app.stats("overload") == {
        "dead_letter_depth": 0,
        "dead_letters": [],
        "dead_letters_replayed": 0,
    }
    assert app.redeliver_dead_letters()["breakers_reset"] == 0
    kernel.check_no_crashes()
