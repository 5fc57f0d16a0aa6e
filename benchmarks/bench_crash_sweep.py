"""Every crash point of the golden workflow, under every kill, on both
backends; and every point of a worker removal's drain.

The workflow, the four kills and the checks are ``tests/crash_sweep.py``'s:
``kernel.run(max_events=k)`` for every ``k`` in ``1 .. 1,063`` (the six
audits take 1,064 events), then one kill, settle, and the oracle of
``tests/oracle.py`` plus the tally check. The removal sweep kills every
other worker at each of the removal's 594 events and at 166 points of its
aftermath, adds a worker, and checks the oracle and every counter's total.
Tier-1 runs strided slices; this runs all 8,504 + 760 points (about 2.5
minutes on one core). Last comes a negative control, reported and not
gated: the at-least-once baseline (``orchestrate_retries=False``) at every
7th golden point on memory under the four kills, where the guarantee check
should flag what the baseline breaks::

    PYTHONPATH=src python benchmarks/bench_crash_sweep.py
    PYTHONPATH=src python -m pytest -q benchmarks/bench_crash_sweep.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from crash_sweep import (  # noqa: E402
    EVENTS,
    KILLS,
    MODES,
    REMOVAL_POINTS,
    removal_sweep,
    sweep,
)
from repro.bench import render_table  # noqa: E402

from _shared import emit  # noqa: E402


#: The negative control's switch and points.
BASELINE = {"orchestrate_retries": False}
CONTROL_POINTS = range(1, EVENTS, 7)


def sweep_all() -> dict[tuple[str, str], dict[int, list[str]]]:
    """The failing points, with their violations, per (backend, kill)."""
    failures = {}
    with tempfile.TemporaryDirectory() as root:
        for mode in MODES:
            for kill in KILLS:
                failures[mode, kill] = sweep(mode, f"{root}/{mode}-{kill}", kill, {})
    failures["memory", "removal"] = removal_sweep()
    return failures


def negative_control() -> dict[str, dict[int, list[str]]]:
    """The baseline's flagged points per kill (memory, every 7th point)."""
    with tempfile.TemporaryDirectory() as root:
        return {
            kill: sweep("memory", f"{root}/{kill}", kill, BASELINE, CONTROL_POINTS)
            for kill in KILLS
        }


def report(failures: dict[tuple[str, str], dict[int, list[str]]]) -> str:
    rows = [
        (
            mode,
            kill,
            REMOVAL_POINTS if kill == "removal" else EVENTS - 1,
            len(failed),
            min(failed, default="-"),
        )
        for (mode, kill), failed in failures.items()
    ]
    return render_table(
        ["Backend", "Kill", "Crash points", "Failing", "First failing k"],
        rows,
        title=(
            "Golden workflow (seed 1503), every crash point; "
            "removal drain and aftermath (seed 3), every point"
        ),
    )


def control_report(flagged: dict[str, dict[int, list[str]]]) -> str:
    rows = [
        (kill, len(CONTROL_POINTS), len(points), min(points, default="-"))
        for kill, points in flagged.items()
    ]
    return render_table(
        ["Kill", "Crash points", "Flagged", "First flagged k"],
        rows,
        title=(
            "Negative control, not gated: orchestrate_retries=False, memory, "
            "every 7th golden point"
        ),
    )


def test_every_crash_point_keeps_the_guarantee():
    failures = sweep_all()
    emit("crash_sweep.txt", report(failures))
    emit("crash_sweep_control.txt", control_report(negative_control()))
    assert {pair: failed for pair, failed in failures.items() if failed} == {}


if __name__ == "__main__":
    results = sweep_all()
    print(report(results))
    for (mode, kill), failed in results.items():
        for k, found in sorted(failed.items())[:3]:
            print(f"{mode} {kill} k={k}:", *found, sep="\n  ")
    flagged = negative_control()
    print(control_report(flagged))
    for kill, points in flagged.items():
        for k, found in sorted(points.items())[:1]:
            print(f"baseline {kill} k={k}:", *found, sep="\n  ")
    sys.exit(any(results.values()))
