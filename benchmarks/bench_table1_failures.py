"""Table 1: summary statistics for the single-node-failure campaign.

Paper values (seconds), for 1,000 failures over 48 hours:

                  Average  StdDev  Median     Min     Max
    Total Outage   22.139   2.114  22.015  16.117  31.207
    Detection       9.053   0.907   9.084   7.217  11.022
    Consensus       2.437   0.086   2.443   2.232   3.197
    Reconciliation 10.649   1.967   9.098   6.019  21.035
"""

from repro.bench import render_table

from _shared import SINGLE_FAILURES, emit, single_failure_campaign


def test_table1_failure_phase_statistics(benchmark):
    result = benchmark.pedantic(
        single_failure_campaign, rounds=1, iterations=1
    )
    assert not result.invariant_violations, result.invariant_violations
    assert not result.guarantee_violations, result.guarantee_violations
    assert len(result.records) == SINGLE_FAILURES

    stats = result.phase_stats()
    rows = [
        (name, s["avg"], s["std"], s["median"], s["min"], s["max"])
        for name, s in stats.items()
    ]
    emit(
        "table1_failures.txt",
        render_table(
            ["Phase (s)", "Average", "StdDev", "Median", "Min", "Max"],
            rows,
            title=(
                f"Table 1: summary statistics for {len(result.records)} "
                f"single-node failures"
            ),
        ),
    )
    total = stats["Total Outage"]
    benchmark.extra_info.update(
        failures=len(result.records),
        total_avg=round(total["avg"], 3),
        detection_avg=round(stats["Detection"]["avg"], 3),
        consensus_avg=round(stats["Consensus"]["avg"], 3),
        reconciliation_avg=round(stats["Reconciliation"]["avg"], 3),
        sim_seconds=round(result.sim_seconds),
    )

    # Shape assertions against the paper.
    assert 15.0 <= total["avg"] <= 30.0  # paper: 22.1
    assert 7.0 <= stats["Detection"]["avg"] <= 11.0  # paper: 9.05
    assert 2.0 <= stats["Consensus"]["avg"] <= 3.5  # paper: 2.44
    assert 5.0 <= stats["Reconciliation"]["avg"] <= 18.0  # paper: 10.6
    # Reconciliation is just under half of total outage (Section 6.1).
    assert 0.3 <= stats["Reconciliation"]["avg"] / total["avg"] <= 0.6
