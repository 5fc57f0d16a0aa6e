"""The runtime's guarantee, checked as it happens (Theorem 3.1, Section 2.3).

Each application subscribes one :class:`GuaranteeMonitor` to its trace
(``app.guarantee``), and ``reopen()`` hands it to the next boot. Event by
event it checks: no ``(request, step)`` ends twice, starts after it ended or
starts while it runs (Theorem 3.3); a parked retry does not start before its
``request.unparked``, and a caller's recovery copy (``copy_epoch`` > 0) does
not start while a callee of an earlier attempt is queued or running
(happen-before, Theorem 3.4); no callee is elided while the execution that
called it runs (Section 4.4); between the end of a tail call to self at
``(r, s)`` and the end of ``(r, s + 1)`` no other request starts on that
actor, unless ``(r, s + 1)`` was elided (the tail lock).
:func:`guarantee_violations` adds the running boot's end state: nothing
unsettled in the journal, no crashed task, every live component quiescent.

An execution runs until its ``invoke.end`` or its component's death (the
kinds in ``_DEATHS``). A callee is queued from its ``request.sent`` or
``reconcile.copy`` (both name its ``caller``) until it starts; one whose
execution died is neither until it is copied again, since its response may
be durable.

The limit: an ended key is forgotten once it ended more than
``broker.retention_seconds + dedup_retention_slack`` ago, the cutoff at which
a component sweeps its own dedup evidence; a duplicate further apart is not
reported. All else it holds is in flight, so its state is O(in-flight + calls
ended within that horizon) however long the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.sim import TraceEvent

__all__ = ["GuaranteeMonitor", "guarantee_violations"]

#: Trace kinds after which a component's executions no longer run.
_DEATHS = frozenset({"component.fail", "component.stop", "component.fenced_exit",
                     "worker.kill", "worker.failed", "app.shutdown"})


#: Trace kinds by which recovery places a request: a copy, a parking or the
#: queue for types with no live host.
_REQUEUES = frozenset({"reconcile.copy", "reconcile.unplaced",
                       "reconcile.already_parked", "deadletter.parked"})


@dataclass(slots=True)
class _Window:
    """The lock a tail call to self at ``(holder, step - 1)`` holds on
    ``actor`` from ``since`` until ``(holder, step)`` ends."""

    actor: str
    since: float
    #: Other requests' starts on ``actor`` inside the window.
    starts: list[str] = field(default_factory=list)
    #: How many of ``starts`` came before the held step first started.
    early: int | None = None
    #: The member whose death cut the held step short ("" for a shutdown),
    #: until recovery places the held step; None while nothing died.
    dead: str | None = None
    #: A reconciliation that handles that death is running.
    reconciling: bool = False

    def violation(self, key: tuple[str, int], starts: list[str]) -> str:
        holder, step = key
        return (
            f"tail lock: {', '.join(starts)} started on {self.actor} after "
            f"{holder} step {step - 1} tail-called itself at {self.since}, "
            f"before step {step} ended"
        )


@dataclass(eq=False)
class GuaranteeMonitor:
    """The trace clauses, fed one event at a time; ``horizon`` is the limit.

    A tail-lock window stays open until its held step ends, an end traced
    only once the step's completion record (its response, or its tail
    call's successor) is durable. A death in between leaves a completed
    step unended, so two rules also close a window, and only the starts
    inside it before the held step first started then count:

    - a later step of the holder is copied, parked or started;
    - the reconciliation handling the held step's death (the next whose
      ``reconcile.start`` names its member failed; after a shutdown, the
      next boot's first) ends without copying, parking or unplacing it.
    """

    horizon: float
    #: (request, step) -> when it last ended.
    ended: dict[tuple[str, int], float] = field(default_factory=dict)
    #: ``ended``'s keys in the order they first ended, expired from the left
    #: (iterating a dict from a front emptied by deletions scans every slot).
    expiry: deque[tuple[str, int]] = field(default_factory=deque)
    parked: set[str] = field(default_factory=set)
    #: (request, step) -> the member running it.
    running: dict[tuple[str, int], str] = field(default_factory=dict)
    #: Unanswered nested call -> its caller's request id.
    callers: dict[str, str] = field(default_factory=dict)
    #: Callees durably queued and not started since.
    queued: set[str] = field(default_factory=set)
    #: (lock holder, its next step) -> the lock it holds.
    windows: dict[tuple[str, int], _Window] = field(default_factory=dict)
    found: list[str] = field(default_factory=list)

    def __call__(self, event: TraceEvent) -> None:
        kind, fields, time = event.kind, event.fields, event.time
        if kind == "invoke.start":
            key = (fields["request"], fields["step"])
            member, running = fields["member"], self.running
            if key in running:
                self.found.append(
                    f"overlap: {key} started on {member} at {time} while "
                    f"running on {running[key]}"
                )
            if fields["copy_epoch"]:
                busy = self.queued | {request for request, _ in running}
                for callee, caller in self.callers.items():
                    if caller == key[0] and callee in busy:
                        self.found.append(
                            f"stale callee: {key} copy started at {time} while "
                            f"{callee}, called by an earlier attempt, is pending"
                        )
            running[key] = member
            self.queued.discard(key[0])
            if key in self.ended:
                self.found.append(
                    f"retry after success: {key} started at {time} "
                    f"after it ended at {self.ended[key]}"
                )
            if key[0] in self.parked:
                self.found.append(
                    f"happen-before: {key} started at {time} while parked"
                )
            for (holder, step), window in list(self.windows.items()):
                if holder != key[0]:
                    if window.actor == fields["actor"]:
                        window.starts.append(f"{key[0]} at {time}")
                elif key[1] > step:
                    self._release((holder, step))
                elif window.early is None:
                    window.early = len(window.starts)
        elif kind == "invoke.end":
            ended = self.ended
            key = (fields["request"], fields["step"])
            if key in ended:
                self.found.append(f"ended twice: {key} at {ended[key]} and {time}")
            else:
                self.expiry.append(key)
            ended[key] = time
            self.running.pop(key, None)
            if fields["outcome"] != "tail":
                self.callers.pop(key[0], None)
                self.queued.discard(key[0])
            window = self.windows.pop(key, None)
            if window and window.starts and fields["outcome"] != "cancelled":
                self.found.append(window.violation(key, window.starts))
            if fields.get("tail_to_self"):
                self.windows[(key[0], key[1] + 1)] = _Window(fields["actor"], time)
            # Stops at the latest at ``key``, which just ended.
            cutoff, expiry = time - self.horizon, self.expiry
            while ended[expiry[0]] < cutoff:
                del ended[expiry.popleft()]
        elif kind == "invoke.elided":
            caller, at = self.callers.get(fields["request"]), fields["caller_member"]
            if (caller, at) in [(r, m) for (r, _), m in self.running.items()]:
                self.found.append(
                    f"cancelled: {fields['request']} elided at {time} while its "
                    f"caller {caller} runs on {at}"
                )
        elif kind == "request.parked":
            self.parked.add(fields["request"])
        elif kind in ("request.unparked", "reconcile.copy"):
            # A fresh recovery copy replaces a parked one whose holder died.
            self.parked.discard(fields["request"])
        if kind in _REQUEUES:
            # Recovery placed the lock holder somewhere: a later step proves
            # the held step completed; the held step itself keeps the lock.
            for (holder, step), window in list(self.windows.items()):
                if holder == fields["request"]:
                    if fields.get("step", step) > step:
                        self._release((holder, step))
                    else:
                        window.dead, window.reconciling = None, False
        elif kind == "reconcile.start":
            for window in self.windows.values():
                if window.dead == "" or window.dead in fields["failed"]:
                    window.reconciling = True
        elif kind == "reconcile.end":
            for key, window in list(self.windows.items()):
                if window.reconciling:
                    self._release(key)
        if kind in ("request.sent", "reconcile.copy") and fields["caller"]:
            self.callers[fields["request"]] = fields["caller"]
            self.queued.add(fields["request"])
        elif kind in _DEATHS:
            member, hosted = fields.get("member"), fields.get("hosted", ())
            for key, where in list(self.running.items()):
                name = where.rpartition("#")[0]
                if kind == "app.shutdown" or where == member or name in hosted:
                    del self.running[key]
                    if key[0] not in self.queued:
                        self.callers.pop(key[0], None)
                    if key in self.windows:
                        self.windows[key].dead = "" if kind == "app.shutdown" else where

    def _release(self, key: tuple[str, int]) -> None:
        """Close a window whose held step completed untraced: only the starts
        before that step began broke the lock."""
        window = self.windows.pop(key)
        if window.early:
            self.found.append(window.violation(key, window.starts[: window.early]))

    def violations(self) -> list[str]:
        """Found so far, then each open tail-lock window another entered."""
        return self.found + [
            window.violation(key, window.starts)
            for key, window in self.windows.items()
            if window.starts
        ]


def guarantee_violations(app: Any) -> list[str]:
    """Every clause over ``app``, the running boot, traced since the first."""
    if not app.trace.enabled:
        raise ValueError(f"boot {app.boot} of {app.name!r} traced nothing")
    violations = [f"unsettled: {rid}" for rid in app.stats("calls")["unsettled"]]
    violations += app.guarantee.violations()
    violations += [f"crashed: task {t.name!r}: {e!r}" for t, e in app.kernel.crashes]
    violations += [
        f"not quiescent: {component!r}"
        for component in app.components.values()
        if component.alive and not component.quiescent
    ]
    return violations
