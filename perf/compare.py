"""Compare two sets of benchmark results against the benchmark's own bounds.

``python3 perf/compare.py A.json B.json`` reads two files written by
``perf/run.py --out`` (A is the base, B the candidate) and prints one row
per workload and end-to-end metric: both medians, the ratio B/A, the bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  not regressed, but the run-to-run spread on either side is
                wider than the bound, so "unchanged" cannot be claimed

With one file holding several result sets (``run.py --repeat K``),
``python3 perf/compare.py A.json`` compares its first half with its second.
The exit code is non-zero when any row regressed or B failed a larger share
of its operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

__all__ = ["report", "spread", "verdict"]


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the interquartile range
    from three values up, the range for two, unknown for one."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return None
    if len(values) == 2:
        return abs(values[1] - values[0]) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(
    base: list[float], candidate: list[float], better: str, bound: float
) -> tuple[str, float, float | None]:
    """``(verdict, worsening as a share of the base median, widest spread)``."""
    a, b = statistics.median(base), statistics.median(candidate)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    spreads = [s for s in (spread(base), spread(candidate)) if s is not None]
    widest = max(spreads) if spreads else None
    if worse > bound:
        return "regressed", worse, widest
    if widest is not None and widest > bound:
        return "unresolved", worse, widest
    return "ok", worse, widest


def _collect(sets: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """workload -> {"metrics": {name: [values]}, "failed": n, "attempted": n}
    over the untraced runs of every set."""
    collected: dict[str, dict[str, Any]] = {}
    for result_set in sets:
        for run in result_set["runs"]:
            if run["trace"]:
                continue
            entry = collected.setdefault(
                run["workload"], {"metrics": {}, "failed": 0, "attempted": 0}
            )
            entry["failed"] += run["failed"]
            entry["attempted"] += run["attempted"]
            for name, metric in run["metrics"].items():
                entry["metrics"].setdefault(name, []).append(metric["value"])
    return collected


def report(
    base_sets: list[dict[str, Any]],
    candidate_sets: list[dict[str, Any]],
    benchmark: dict[str, Any],
) -> int:
    """Print the comparison; returns the process exit code."""
    base, candidate = _collect(base_sets), _collect(candidate_sets)
    status = 0
    print(
        f"{'workload':<22}{'metric':<17}{'unit':<5}{'base A':>12}{'cand B':>12}"
        f"{'B/A':>8}{'bound':>7}{'spread':>8}  verdict"
    )
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in base or workload not in candidate:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_values = base[workload]["metrics"][name]
            b_values = candidate[workload]["metrics"][name]
            word, _worse, widest = verdict(
                a_values, b_values, metric["better"], metric["bound"]
            )
            if word == "regressed":
                status = 1
            a, b = statistics.median(a_values), statistics.median(b_values)
            shown = "n/a" if widest is None else f"{widest:.3f}"
            print(
                f"{workload:<22}{name:<17}{metric['unit']:<5}{a:>12.4f}{b:>12.4f}"
                f"{b / a:>8.3f}{metric['bound']:>7.2f}{shown:>8}  {word}"
            )
        a_share = base[workload]["failed"] / base[workload]["attempted"]
        b_share = candidate[workload]["failed"] / candidate[workload]["attempted"]
        word = "ok"
        if b_share > a_share:
            word, status = "regressed", 1
        print(
            f"{workload:<22}{'failed_share':<17}{'ratio':<5}{a_share:>12.6f}"
            f"{b_share:>12.6f}{'':>8}{0:>7.2f}{'':>8}  {word}"
        )
    return status


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle)["sets"])
    if len(files) == 2:
        base_sets, candidate_sets = files
    else:
        half = len(files[0]) // 2
        if half == 0:
            print("one file needs at least two result sets (run.py --repeat 2)")
            return 2
        base_sets, candidate_sets = files[0][:half], files[0][half:]
    benchmark_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(benchmark_path, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return report(base_sets, candidate_sets, benchmark)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
