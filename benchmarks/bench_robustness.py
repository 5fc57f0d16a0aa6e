"""Section 6.1's two robustness scenarios.

- **paired**: "We verified that KAR can robustly handle failures during
  recovery by injecting 1,000 paired node failures where the second failure
  was timed to occur during the consensus or reconciliation phases of
  recovery."
- **total**: "We performed 500 iterations of a complete application failure
  scenario where all application and runtime processes except the simulator
  were killed abruptly and then restarted after waiting for 30 seconds."

Each scenario is a ``measure`` function returning ``(title, rows)`` for its
table after asserting its own acceptance criteria; one parametrised test
runs and renders them.
"""

from __future__ import annotations

import pytest

from repro.bench import render_table
from repro.bench.failure_harness import run_total_failure_iterations

from _shared import (
    PAIRED_FAILURES,
    TOTAL_FAILURE_ITERATIONS,
    emit,
    paired_failure_campaign,
)


def measure_paired() -> tuple[str, list[tuple]]:
    result = paired_failure_campaign()
    assert not result.invariant_violations, result.invariant_violations
    assert not result.guarantee_violations, result.guarantee_violations
    stats = result.phase_stats()
    # Every injected incident eventually recovered.
    assert len(result.records) == PAIRED_FAILURES
    # Paired recoveries take longer than the single-failure baseline.
    assert stats["Total Outage"]["avg"] > 15.0
    title = (
        f"Paired failures: {len(result.records)} incidents with a second "
        "node killed during recovery (no invariant violations)"
    )
    return title, [
        (name, s["avg"], s["median"], s["min"], s["max"])
        for name, s in stats.items()
    ]


def measure_total() -> tuple[str, list[tuple]]:
    outcome = run_total_failure_iterations(
        seed=99, iterations=TOTAL_FAILURE_ITERATIONS
    )
    assert outcome["recovered"] == outcome["iterations"]
    assert not outcome["violations"], outcome["violations"]
    assert not outcome["guarantee_violations"], outcome["guarantee_violations"]
    title = (
        "Complete application failure: kill everything but the simulators, "
        "wait 30 s, restart"
    )
    return title, [
        (
            outcome["iterations"],
            outcome["recovered"],
            outcome["details"].get("orders_submitted"),
            len(outcome["violations"]),
        )
    ]


SCENARIOS = {
    "paired": (
        measure_paired,
        ("Phase (s)", "Average", "Median", "Min", "Max"),
    ),
    "total": (
        measure_total,
        ("Iterations", "Recovered", "Orders", "Violations"),
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_robustness(benchmark, scenario):
    measure, headers = SCENARIOS[scenario]
    title, rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        f"robustness_{scenario}.txt",
        render_table(headers, rows, title=title),
    )
    benchmark.extra_info["rows"] = [list(row) for row in rows]
