"""Figure 7a: phases of failure detection and recovery, per failure.

The paper plots, for each of 1,000 failures, the stacked
detection / consensus / reconciliation times (total 16-31 s, detection a
tight ~9 s band, reconciliation the variable component).
"""

from repro.bench import render_series

from _shared import emit, single_failure_campaign


def test_fig7a_recovery_phase_series(benchmark):
    result = benchmark.pedantic(
        single_failure_campaign, rounds=1, iterations=1
    )
    assert not result.guarantee_violations, result.guarantee_violations
    points = [
        (
            record.index + 1,
            record.detection,
            record.consensus,
            record.reconciliation,
            record.total,
        )
        for record in result.records
    ]
    emit(
        "fig7a_phases.txt",
        render_series(
            "Figure 7a: phases of failure detection and recovery (seconds)",
            points,
            ["Failure#", "Detection", "Consensus", "Reconciliation", "Total"],
        ),
    )
    benchmark.extra_info["failures"] = len(points)

    # Shape: every failure detected within the session-timeout envelope,
    # consensus a narrow band, totals within the paper's 16-31 s range
    # scaled to our envelope.
    for record in result.records:
        assert 6.5 <= record.detection <= 11.5
        assert 2.0 <= record.consensus <= 3.5
        assert record.total == (
            record.detection + record.consensus + record.reconciliation
        ) or record.total >= record.detection
    variability = result.phase_stats()
    # Reconciliation varies more than detection or consensus (the paper's
    # visual signature in Figure 7a).
    assert (
        variability["Reconciliation"]["std"]
        > variability["Consensus"]["std"]
    )
