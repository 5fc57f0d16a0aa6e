"""Figure 7b: maximum order latency in the window around each failure.

Paper: failure-free order latency ~100 ms; around failures the maximum
spikes to an average (median) of 24.5 (24.0) s, min 7.2, max 43.8 -- the
max occasionally *below* the outage because unimpacted replicas keep
processing until the consensus/reconciliation pause.
"""

from repro.bench import render_series

from _shared import emit, single_failure_campaign


def test_fig7b_max_order_latency(benchmark):
    result = benchmark.pedantic(
        single_failure_campaign, rounds=1, iterations=1
    )
    assert not result.guarantee_violations, result.guarantee_violations
    points = [
        (record.index + 1, record.max_order_latency, record.total)
        for record in result.records
        if record.max_order_latency is not None
    ]
    emit(
        "fig7b_order_latency.txt",
        render_series(
            "Figure 7b: maximum order latency around failures (seconds)",
            points,
            ["Failure#", "MaxOrderLatency", "OutageTotal"],
        ),
    )
    stats = result.latency_stats()
    benchmark.extra_info.update(
        spike_avg=round(stats["avg"], 2),
        spike_max=round(stats["max"], 2),
    )

    # Shape: spikes are the same order of magnitude as the outage (tens of
    # seconds), vastly above the failure-free latency (sub-second).
    assert stats["avg"] > 5.0
    assert stats["max"] < 60.0
    # Occasionally the spike is below the outage total (replication kept
    # unimpacted orders flowing until the pause) -- allow either, but check
    # the two series are correlated in magnitude.
    totals = [record.total for record in result.records]
    assert stats["avg"] < 2.5 * (sum(totals) / len(totals))
