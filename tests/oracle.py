"""The runtime's guarantee, asserted at the end of a failure test.

A failure test drives an application through kills, restarts or a cold
restart, lets it settle, and ends in :func:`check_guarantee` with every boot
in order (``app`` and, after ``app2 = app.reopen()``, ``app2``). The clauses
live in :mod:`repro.obs.guarantee`, whose monitor followed every boot; this
wrapper refuses a boot that ran untraced and reads the last boot's verdict.
"""

from __future__ import annotations

from typing import Any

from repro.obs import guarantee_violations as _violations

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
    return _violations(boots[-1])
