"""The runtime's guarantee, checked as it happens (Theorem 3.1, Section 2.3).

Each application subscribes one :class:`GuaranteeMonitor` to its trace
(``app.guarantee``), and ``reopen()`` hands it to the next boot. Event by
event it checks: no ``(request, step)`` ends twice or starts after it ended;
a parked retry does not start before its ``request.unparked`` (happen-before,
Sections 2.2 and 3.4); between the end of a tail call to self at ``(r, s)``
and the end of ``(r, s + 1)`` no other request starts on that actor, unless
``(r, s + 1)`` was elided (the tail lock). :func:`guarantee_violations` adds
the running boot's end state: nothing unsettled in the journal, no crashed
task, every live component quiescent.

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


@dataclass(eq=False)
class GuaranteeMonitor:
    """The trace clauses, fed one event at a time; ``horizon`` is the limit."""

    horizon: float
    #: (request, step) -> when it last ended.
    ended: dict[tuple[str, int], float] = field(default_factory=dict)
    #: ``ended``'s keys in the order they first ended, expired from the left
    #: (iterating a dict from a front emptied by deletions scans every slot).
    expiry: deque[tuple[str, int]] = field(default_factory=deque)
    parked: set[str] = field(default_factory=set)
    #: (lock holder, its next step) -> [actor, tail end time, starts inside]
    windows: dict[tuple[str, int], list] = field(default_factory=dict)
    found: list[str] = field(default_factory=list)

    def __call__(self, event: TraceEvent) -> None:
        kind, fields, time = event.kind, event.fields, event.time
        if kind == "invoke.start":
            key = (fields["request"], fields["step"])
            if key in self.ended:
                self.found.append(
                    f"retry after success: {key} started at {time} "
                    f"after it ended at {self.ended[key]}"
                )
            if key[0] in self.parked:
                self.found.append(
                    f"happen-before: {key} started at {time} while parked"
                )
            for (holder, _step), window in self.windows.items():
                if window[0] == fields["actor"] and holder != key[0]:
                    window[2].append(f"{key[0]} at {time}")
        elif kind == "invoke.end":
            ended = self.ended
            key = (fields["request"], fields["step"])
            if key in ended:
                self.found.append(f"ended twice: {key} at {ended[key]} and {time}")
            else:
                self.expiry.append(key)
            ended[key] = time
            window = self.windows.pop(key, None)
            if window and window[2] and fields["outcome"] != "cancelled":
                self.found.append(_tail_lock_violation(key, window))
            if fields.get("tail_to_self"):
                self.windows[(key[0], key[1] + 1)] = [fields["actor"], time, []]
            # Stops at the latest at ``key``, which just ended.
            cutoff, expiry = time - self.horizon, self.expiry
            while ended[expiry[0]] < cutoff:
                del ended[expiry.popleft()]
        elif kind == "request.parked":
            self.parked.add(fields["request"])
        elif kind in ("request.unparked", "reconcile.copy"):
            # A fresh recovery copy replaces a parked one whose holder died.
            self.parked.discard(fields["request"])

    def violations(self) -> list[str]:
        """Found so far, then each open tail-lock window another entered."""
        return self.found + [
            _tail_lock_violation(key, window)
            for key, window in self.windows.items()
            if window[2]
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


def _tail_lock_violation(key: tuple[str, int], window: list) -> str:
    (holder, step), (actor, since, starts) = key, window
    return (
        f"tail lock: {', '.join(starts)} started on {actor} after "
        f"{holder} step {step - 1} tail-called itself at {since}, before "
        f"step {step} ended"
    )
