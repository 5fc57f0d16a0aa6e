"""The guarantee monitor's clauses, one synthetic trace apiece.

Each test feeds :class:`~repro.obs.GuaranteeMonitor` hand-built
``TraceEvent``s in emission order, the way a ``TraceRecorder`` does, and
reads the verdict; the runtime's own traces reach the same monitor through
``check_guarantee`` in every failure test.
"""

from __future__ import annotations

from repro.obs import GuaranteeMonitor
from repro.sim import TraceEvent


def start(time, request, step=0, actor="A[a]", member="w1#0", copy_epoch=0):
    fields = {"request": request, "step": step, "actor": actor}
    fields.update(member=member, copy_epoch=copy_epoch)
    return TraceEvent(time, "invoke.start", fields)


def end(time, request, step=0, actor="A[a]", outcome="value", tail_to_self=False):
    fields = {"request": request, "step": step, "actor": actor, "outcome": outcome}
    if tail_to_self:
        fields["tail_to_self"] = True
    return TraceEvent(time, "invoke.end", fields)


def verdict(*events, horizon=100.0):
    monitor = GuaranteeMonitor(horizon)
    for event in events:
        monitor(event)
    return monitor.violations()


def test_a_clean_chain_has_no_violation():
    assert verdict(
        start(0.0, "r1"),
        end(1.0, "r1", tail_to_self=True),
        start(1.5, "r1", 1),
        end(2.0, "r1", 1),
        start(2.5, "r2"),
        end(3.0, "r2"),
    ) == []


def test_retry_after_success():
    assert verdict(start(0.0, "r1"), end(1.0, "r1"), start(2.0, "r1")) == [
        "retry after success: ('r1', 0) started at 2.0 after it ended at 1.0"
    ]


def test_ended_twice():
    assert verdict(end(1.0, "r1"), end(2.0, "r1")) == [
        "ended twice: ('r1', 0) at 1.0 and 2.0"
    ]


def test_start_while_parked():
    parked = TraceEvent(0.5, "request.parked", {"request": "r2"})
    assert verdict(parked, start(1.0, "r2")) == [
        "happen-before: ('r2', 0) started at 1.0 while parked"
    ]
    released = TraceEvent(0.8, "request.unparked", {"request": "r2"})
    assert verdict(parked, released, start(1.0, "r2")) == []


def test_tail_lock_breach():
    assert verdict(
        end(1.0, "r1", tail_to_self=True),
        start(1.2, "r2"),
        start(1.3, "r3", actor="A[b]"),  # another actor: not inside the lock
        end(2.0, "r1", 1),
    ) == [
        "tail lock: r2 at 1.2 started on A[a] after r1 step 0 tail-called "
        "itself at 1.0, before step 1 ended"
    ]


def test_an_elided_successor_releases_the_lock():
    assert verdict(
        end(1.0, "r1", tail_to_self=True),
        start(1.2, "r2"),
        end(2.0, "r1", 1, outcome="cancelled"),
    ) == []


def test_a_window_left_open_at_the_end():
    assert verdict(end(1.0, "r1", tail_to_self=True), start(1.2, "r2")) == [
        "tail lock: r2 at 1.2 started on A[a] after r1 step 0 tail-called "
        "itself at 1.0, before step 1 ended"
    ]


def test_an_ended_key_is_forgotten_past_the_horizon():
    monitor = GuaranteeMonitor(10.0)
    monitor(end(0.0, "r1"))
    monitor(end(10.0, "r2"))  # exactly one horizon later: r1 is kept
    monitor(end(10.0, "r1"))  # a duplicate inside the horizon is flagged
    assert monitor.violations() == ["ended twice: ('r1', 0) at 0.0 and 10.0"]
    assert monitor.ended == {("r1", 0): 10.0, ("r2", 0): 10.0}
    monitor(end(20.5, "r3"))  # r1 (again) and r2 ended 10.5 ago
    assert list(monitor.ended) == list(monitor.expiry) == [("r3", 0)]
    monitor(start(21.0, "r1"))  # past the horizon: not reported
    assert len(monitor.violations()) == 1


def sent(time, request, caller):
    return TraceEvent(time, "request.sent", {"request": request, "caller": caller})


def died(time, member):
    return TraceEvent(time, "component.fail", {"member": member})


def test_two_executions_of_one_key_overlap():
    first, second = start(0.0, "r1", member="w1#0"), start(1.0, "r1", member="w2#0")
    assert verdict(first, second) == [
        "overlap: ('r1', 0) started on w2#0 at 1.0 while running on w1#0"
    ]
    # A dead component's executions no longer run, by name or by member.
    assert verdict(first, died(0.5, "w1#0"), second) == []
    killed = TraceEvent(0.5, "worker.kill", {"worker": "k1", "hosted": ["w1"]})
    assert verdict(first, killed, second) == []


def test_a_recovery_copy_while_a_callee_of_an_earlier_attempt_is_pending():
    caller = (start(0.0, "r1", member="a#0"), sent(0.1, "r2", caller="r1"))
    retry = (died(0.5, "a#0"), start(1.0, "r1", member="a#1", copy_epoch=1))
    assert verdict(*caller, *retry) == [
        "stale callee: ('r1', 0) copy started at 1.0 while r2, called by an "
        "earlier attempt, is pending"
    ]
    running = start(0.2, "r2", actor="B[b]", member="b#0")
    assert verdict(*caller, running, *retry) == [
        "stale callee: ('r1', 0) copy started at 1.0 while r2, called by an "
        "earlier attempt, is pending"
    ]
    answered = end(0.9, "r2", actor="B[b]")
    assert verdict(*caller, running, answered, *retry) == []


def test_a_callee_whose_execution_died_is_pending_again_once_copied():
    monitor = GuaranteeMonitor(100.0)
    for event in (
        start(0.0, "r1", member="a#0"),
        sent(0.1, "r2", caller="r1"),
        start(0.2, "r2", actor="B[b]", member="b#0"),
        died(0.5, "b#0"),  # its response may already be durable
    ):
        monitor(event)
    assert monitor.running == {("r1", 0): "a#0"} and monitor.callers == {}
    copied = TraceEvent(1.0, "reconcile.copy", {"request": "r2", "caller": "r1"})
    retry = start(1.5, "r1", member="a#1", copy_epoch=1)
    for event in (copied, died(1.1, "a#0"), retry):
        monitor(event)
    assert monitor.violations() == [
        "stale callee: ('r1', 0) copy started at 1.5 while r2, called by an "
        "earlier attempt, is pending"
    ]


def test_an_elided_callee_of_a_live_caller():
    elided = TraceEvent(
        0.2, "invoke.elided", {"request": "r2", "caller_member": "a#0"}
    )
    caller = (start(0.0, "r1", member="a#0"), sent(0.1, "r2", caller="r1"))
    assert verdict(*caller, elided) == [
        "cancelled: r2 elided at 0.2 while its caller r1 runs on a#0"
    ]
    assert verdict(*caller, died(0.15, "a#0"), elided) == []
