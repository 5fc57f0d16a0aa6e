"""Table 1: summary statistics for the single-node-failure campaign.

Paper values (seconds), for 1,000 failures over 48 hours:

                  Average  StdDev  Median     Min     Max
    Total Outage   22.139   2.114  22.015  16.117  31.207
    Detection       9.053   0.907   9.084   7.217  11.022
    Consensus       2.437   0.086   2.443   2.232   3.197
    Reconciliation 10.649   1.967   9.098   6.019  21.035

Run as a script, it is the memory probe of the campaign instead: seed 7 at
20 and at 80 failures, each in a fresh interpreter, printing the peak RSS
and what the runtime still holds once the campaign ends (``tracemalloc``,
the application alive), in all and per failure, and the growth per failure
between the sizes::

    PYTHONPATH=src python benchmarks/bench_table1_failures.py
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import tracemalloc

from repro.bench import FailureCampaign, render_table

from _shared import SINGLE_FAILURES, emit, single_failure_campaign

#: The memory probe's seed and campaign sizes.
PROBE_SEED = 7
PROBE_SIZES = (20, 80)


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


def campaign_memory(failures: int, traced: bool) -> float:
    """One campaign run in this process: its peak RSS in MB or, ``traced``,
    the MB ``tracemalloc`` still counts once it ends, the campaign and its
    application alive."""
    if traced:
        gc.collect()
        tracemalloc.start()
    campaign = FailureCampaign(seed=PROBE_SEED, failures=failures)
    result = campaign.run()
    assert len(result.records) == failures, len(result.records)
    if not traced:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return retained / 2**20


def probe(failures: int, traced: bool) -> float:
    """``campaign_memory`` in a fresh interpreter, so that peak RSS is one
    campaign's alone."""
    here = os.path.dirname(os.path.abspath(__file__))
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {here!r}); "
            "import bench_table1_failures as b; "
            f"print(b.campaign_memory({failures}, {traced}))",
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    return float(child.stdout.splitlines()[-1])


def main() -> int:
    rows = []
    for failures in PROBE_SIZES:
        peak = probe(failures, traced=False)
        retained = probe(failures, traced=True)
        rows.append((failures, peak, retained, retained / failures))
    print(
        render_table(
            ["Failures", "Peak RSS (MB)", "Retained (MB)", "Retained/failure (MB)"],
            rows,
            title=f"Table 1 campaign memory, seed {PROBE_SEED}",
        )
    )
    for (small, _, held_small, _), (large, _, held_large, _) in zip(rows, rows[1:]):
        growth = (held_large - held_small) / (large - small)
        print(f"growth {small} -> {large} failures: {growth:.4f} MB a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
