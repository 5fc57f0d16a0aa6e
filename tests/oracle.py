"""The runtime's guarantee, stated once (Theorem 3.1 and Section 2.3).

A failure test drives an application through kills, restarts or a cold
restart, lets it settle, and ends in :func:`check_guarantee` with every boot
of the application in order (``app`` and, after ``app2 = app.reopen()``,
``app2``). The check reads each boot's :class:`~repro.sim.TraceRecorder`,
the journal's settlement (``stats("calls")``) and the kernel, and asserts:

- nothing is unsettled: every retained request has a response;
- no ``(request, step)`` ends twice (``invoke.end``);
- no ``(request, step)`` starts after it ended (no retry after success);
- a parked retry does not start before its ``request.unparked``
  (happen-before, Sections 2.2 and 3.4);
- the tail lock holds: between the end of a tail call to self at
  ``(r, s)`` and the end of ``(r, s + 1)`` no other request starts on that
  actor, unless ``(r, s + 1)`` was elided (Section 2.3);
- no task crashed, and every live component is quiescent.

Tracing must be on for every boot; a test that turns it off keeps its own
checks.
"""

from __future__ import annotations

from typing import Any

__all__ = ["check_guarantee", "guarantee_violations"]


def check_guarantee(*boots: Any) -> None:
    """Assert the guarantee over ``boots``, the boots of one application in
    the order they ran; the last is the one still running."""
    violations = guarantee_violations(*boots)
    assert not violations, "guarantee violated:\n  " + "\n  ".join(violations)


def guarantee_violations(*boots: Any) -> list[str]:
    """What :func:`check_guarantee` asserts, as a list of violations."""
    if not boots:
        raise ValueError("no application to check")
    for app in boots:
        if not app.trace.enabled:
            raise ValueError(f"boot {app.boot} of {app.name!r} traced nothing")
    current = boots[-1]
    violations = [
        f"unsettled: {request_id}"
        for request_id in current.stats("calls")["unsettled"]
    ]
    violations += _trace_violations([e for app in boots for e in app.trace])
    violations += [
        f"crashed: task {task.name!r}: {error!r}"
        for task, error in current.kernel.crashes
    ]
    violations += [
        f"not quiescent: {component!r}"
        for component in current.components.values()
        if component.alive and not component.quiescent
    ]
    return violations


def _trace_violations(events: list) -> list[str]:
    violations: list[str] = []
    ended: dict[tuple[str, int], float] = {}
    parked: set[str] = set()
    # (lock holder, its next step) -> [actor, tail end time, starts inside]
    windows: dict[tuple[str, int], list] = {}
    for event in events:
        kind = event.kind
        if kind == "invoke.start":
            key = (event["request"], event["step"])
            if key in ended:
                violations.append(
                    f"retry after success: {key} started at {event.time} "
                    f"after it ended at {ended[key]}"
                )
            if key[0] in parked:
                violations.append(
                    f"happen-before: {key} started at {event.time} while parked"
                )
            for (holder, _step), window in windows.items():
                if window[0] == event["actor"] and holder != key[0]:
                    window[2].append(f"{key[0]} at {event.time}")
        elif kind == "invoke.end":
            key = (event["request"], event["step"])
            if key in ended:
                violations.append(
                    f"ended twice: {key} at {ended[key]} and {event.time}"
                )
            ended[key] = event.time
            window = windows.pop(key, None)
            if window and window[2] and event["outcome"] != "cancelled":
                violations.append(_tail_lock_violation(key, window))
            if event.get("tail_to_self"):
                windows[(key[0], key[1] + 1)] = [event["actor"], event.time, []]
        elif kind == "request.parked":
            parked.add(event["request"])
        elif kind in ("request.unparked", "reconcile.copy"):
            # A fresh recovery copy replaces a parked one whose holder died.
            parked.discard(event["request"])
    violations += [
        _tail_lock_violation(key, window)
        for key, window in windows.items()
        if window[2]
    ]
    return violations


def _tail_lock_violation(key: tuple[str, int], window: list) -> str:
    (holder, step), (actor, since, starts) = key, window
    return (
        f"tail lock: {', '.join(starts)} started on {actor} after "
        f"{holder} step {step - 1} tail-called itself at {since}, before "
        f"step {step} ended"
    )
