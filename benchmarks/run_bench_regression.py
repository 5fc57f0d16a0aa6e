"""CI benchmark-regression gate.

Runs the quick-scale benchmark workloads directly (no pytest layer), writes
the headline metrics to a JSON results file, and optionally compares them
against a committed baseline. Every metric is produced by the deterministic
simulation (seeded kernels, simulated time), so the numbers are exact and
the gate cannot flake on runner noise; the 10% tolerance absorbs deliberate
small trade-offs, not jitter.

Usage::

    python benchmarks/run_bench_regression.py --output BENCH_results.json
    python benchmarks/run_bench_regression.py --check \
        --baseline benchmarks/BENCH_baseline.json --output BENCH_results.json

Gated metrics (higher = worse, fail above baseline * 1.10) cover the fan-in
produce round trips, the stateful store round trips / median call latency /
per-call allocation blocks / durable journal bytes, the values a cold
restart decodes, the codec encoded bytes
and allocation blocks, and the lifecycle resident-footprint counts; the storm
goodput ratio and the multi-worker scale-out speedups gate in the other
direction (lower = worse, fail below baseline * 0.90 or the absolute
acceptance floors: 3x storm goodput, 1.5x at two workers, 2x at four, and
1.5x adaptive-over-static under zipfian skew), and lost calls -- storm,
scale-out, zipf, or the HTTP gateway -- fail unconditionally. The gateway
workload runs 100k distinct actor keys through a live socket and must lose
nothing and clear a conservative absolute requests/s floor (wall-clock, so
baseline-relative gating would flake on runner noise). The rest are
informational and tracked through the uploaded artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: Metrics where an increase beyond the tolerance is a regression.
GATED_HIGHER_IS_WORSE = (
    "fanout_unbatched_round_trips",
    "fanout_coalesce_round_trips",
    "fanout_linger_round_trips",
    "fanout_stateful_store_round_trips",
    "fanout_stateful_median_call_ms",
    "fanout_stateful_alloc_blocks_per_call",
    "fanout_stateful_journal_bytes",
    "restart_sqlite_decoded_values",
    "codec_binary_bytes",
    "codec_binary_alloc_blocks",
    "lifecycle_peak_instances",
    "lifecycle_peak_mailboxes",
    "lifecycle_peak_handled",
    "lifecycle_peak_settled",
)
#: Metrics where a decrease beyond the tolerance is a regression.
GATED_LOWER_IS_WORSE = (
    "storm_goodput_ratio",
    "scaleout_speedup_2w",
    "scaleout_speedup_4w",
    "zipf_adaptive_vs_static_ratio",
)
TOLERANCE = 0.10
#: Absolute floor for the overload-guard storm protection, independent of
#: what the baseline recorded (the acceptance criterion of the subsystem).
STORM_RATIO_FLOOR = 3.0
#: Absolute floors for multi-worker scaling, independent of the baseline
#: (the acceptance criteria of the scale-out runtime).
SCALEOUT_SPEEDUP_2W_FLOOR = 1.5
SCALEOUT_SPEEDUP_4W_FLOOR = 2.0
#: Absolute floor for adaptive placement vs static hosting under zipfian
#: skew (the acceptance criterion of the placement controller).
ZIPF_RATIO_FLOOR = 1.5
#: The serving-edge acceptance criterion: the full distinct-key population
#: must be served through the live HTTP gateway with zero lost calls.
GATEWAY_KEYS_TARGET = 100_000
#: Conservative absolute wall-clock floor for the gateway (requests/s).
#: Real sockets vary with runner hardware, so the measured rate is
#: informational vs the baseline; the floor only catches collapses.
GATEWAY_THROUGHPUT_FLOOR = 300.0


def collect_metrics() -> dict[str, float]:
    import bench_durable_restart
    import bench_lifecycle_churn
    import bench_throughput_fanout

    metrics: dict[str, float] = {}

    print("running fan-in throughput workload ...", flush=True)
    fanout_rows = {
        row["label"]: row for row in bench_throughput_fanout.measure_all()
    }
    unbatched = fanout_rows["unbatched (batch_max=1)"]
    coalesce = fanout_rows["coalesce (linger=0)"]
    linger = fanout_rows["linger 2ms"]
    metrics["fanout_unbatched_round_trips"] = unbatched["round_trips"]
    metrics["fanout_coalesce_round_trips"] = coalesce["round_trips"]
    metrics["fanout_linger_round_trips"] = linger["round_trips"]
    metrics["fanout_linger_largest_batch"] = linger["largest_batch"]
    metrics["fanout_linger_median_call_ms"] = round(linger["median_ms"], 4)
    metrics["fanout_coalesce_median_call_ms"] = round(coalesce["median_ms"], 4)

    print("running stateful fan-in workload ...", flush=True)
    stateful = bench_throughput_fanout.run_stateful()
    metrics["fanout_stateful_store_round_trips"] = stateful["store_round_trips"]
    metrics["fanout_stateful_median_call_ms"] = round(stateful["median_ms"], 4)
    metrics["fanout_stateful_alloc_blocks_per_call"] = round(
        stateful["alloc_blocks_per_call"], 4
    )
    metrics["fanout_stateful_journal_bytes"] = stateful["journal_bytes"]

    print("running codec microbenchmark ...", flush=True)
    import bench_codec

    codec = bench_codec.measure_codec()
    metrics["codec_binary_bytes"] = codec["bytes"]
    metrics["codec_binary_alloc_blocks"] = codec["alloc_blocks"]

    print("running lifecycle churn workload ...", flush=True)
    _app, worker, _client, samples = bench_lifecycle_churn.run_churn()
    metrics["lifecycle_peak_instances"] = max(row[1] for row in samples)
    metrics["lifecycle_peak_mailboxes"] = max(row[2] for row in samples)
    metrics["lifecycle_peak_handled"] = max(row[3] for row in samples)
    metrics["lifecycle_peak_settled"] = max(row[4] for row in samples)
    metrics["lifecycle_passivations"] = worker.passivations

    print("running durable cold-restart workload ...", flush=True)
    restart_rows = {
        row["mode"]: row for row in bench_durable_restart.measure_all()
    }
    sqlite_row = restart_rows["sqlite"]
    metrics["restart_sqlite_replayed_records"] = sqlite_row["replayed_records"]
    metrics["restart_sqlite_decoded_values"] = sqlite_row["decoded_values"]
    metrics["restart_sqlite_reconcile_copies"] = sqlite_row["reconcile_copies"]
    metrics["restart_sqlite_recovery_seconds"] = round(
        sqlite_row["recovery_seconds"], 4
    )
    metrics["restart_sqlite_unsettled_after"] = sqlite_row["unsettled_after"]
    metrics["restart_sqlite_commit_deficit"] = (
        sqlite_row["expected_total"] - sqlite_row["commit_total"]
    )

    print("running overload storm workload ...", flush=True)
    import bench_overload_storm

    storm = bench_overload_storm.measure_all()
    metrics["storm_goodput_on_per_s"] = round(
        storm["on"]["goodput_per_s"], 4
    )
    metrics["storm_goodput_off_per_s"] = round(
        storm["off"]["goodput_per_s"], 4
    )
    metrics["storm_goodput_ratio"] = round(storm["goodput_ratio"], 4)
    metrics["storm_p99_on_s"] = round(storm["on"]["p99_s"], 4)
    metrics["storm_parked"] = storm["on"]["parked"]
    metrics["storm_replayed"] = storm["on"]["replayed"]
    metrics["storm_lost_calls"] = storm["on"]["lost"] + storm["off"]["lost"]

    print("running multi-worker scale-out workload ...", flush=True)
    import bench_scaleout

    scaling = {row["workers"]: row for row in bench_scaleout.measure_scaling()}
    single = scaling[1]["calls_per_s"]
    for workers in (1, 2, 4):
        metrics[f"scaleout_calls_per_s_{workers}w"] = round(
            scaling[workers]["calls_per_s"], 1
        )
    metrics["scaleout_speedup_2w"] = round(
        scaling[2]["calls_per_s"] / single, 4
    )
    metrics["scaleout_speedup_4w"] = round(
        scaling[4]["calls_per_s"] / single, 4
    )
    kill_rows = bench_scaleout.measure_kill()
    metrics["scaleout_lost_calls"] = sum(
        row["lost_calls"] + row["double_commits"] for row in kill_rows
    ) + sum(row["lost_calls"] for row in scaling.values())

    print("running zipfian skew placement workload ...", flush=True)
    import bench_zipf_skew

    zipf = bench_zipf_skew.measure_all()
    metrics["zipf_static_calls_per_s"] = round(
        zipf["static"]["calls_per_s"], 1
    )
    metrics["zipf_adaptive_calls_per_s"] = round(
        zipf["adaptive"]["calls_per_s"], 1
    )
    metrics["zipf_adaptive_vs_static_ratio"] = round(zipf["ratio"], 4)
    metrics["zipf_adaptive_splits"] = zipf["adaptive"]["splits"]
    metrics["zipf_adaptive_migrations"] = zipf["adaptive"]["migrations"]
    metrics["zipf_lost_calls"] = sum(
        row["lost_calls"] + row["double_commits"]
        for row in (zipf["static"], zipf["adaptive"])
    )

    print("running HTTP gateway zipfian workload ...", flush=True)
    import bench_gateway_zipf

    gateway = bench_gateway_zipf.measure(keys=GATEWAY_KEYS_TARGET)
    metrics["gateway_requests"] = gateway["requests"]
    metrics["gateway_distinct_keys"] = gateway["distinct_keys"]
    metrics["gateway_lost_calls"] = (
        gateway["lost"] + gateway["mismatched_keys"] + gateway["unsettled"]
    )
    metrics["gateway_requests_per_s"] = round(gateway["requests_per_s"], 1)
    metrics["gateway_call_p50_ms"] = gateway["call_p50_ms"]
    metrics["gateway_call_p99_ms"] = gateway["call_p99_ms"]
    return metrics


def check(metrics: dict[str, float], baseline: dict[str, float]) -> list[str]:
    failures = []
    # Correctness invariants gate unconditionally: recovery must settle
    # everything exactly once regardless of what the baseline recorded.
    if metrics.get("restart_sqlite_unsettled_after", 0) != 0:
        failures.append("cold restart left unsettled calls behind")
    if metrics.get("restart_sqlite_commit_deficit", 0) != 0:
        failures.append("cold restart lost or duplicated workflow commits")
    if metrics.get("storm_lost_calls", 0) != 0:
        failures.append(
            "overload storm lost calls (dead letters must replay to "
            "exactly-once completion)"
        )
    if metrics.get("storm_goodput_ratio", 0.0) < STORM_RATIO_FLOOR:
        failures.append(
            f"storm_goodput_ratio {metrics.get('storm_goodput_ratio')} "
            f"below the {STORM_RATIO_FLOOR}x acceptance floor"
        )
    if metrics.get("scaleout_lost_calls", 0) != 0:
        failures.append(
            "multi-worker scale-out lost or duplicated calls (a worker "
            "kill must settle every in-flight call exactly once)"
        )
    if metrics.get("scaleout_speedup_2w", 0.0) < SCALEOUT_SPEEDUP_2W_FLOOR:
        failures.append(
            f"scaleout_speedup_2w {metrics.get('scaleout_speedup_2w')} "
            f"below the {SCALEOUT_SPEEDUP_2W_FLOOR}x acceptance floor"
        )
    if metrics.get("scaleout_speedup_4w", 0.0) < SCALEOUT_SPEEDUP_4W_FLOOR:
        failures.append(
            f"scaleout_speedup_4w {metrics.get('scaleout_speedup_4w')} "
            f"below the {SCALEOUT_SPEEDUP_4W_FLOOR}x acceptance floor"
        )
    if metrics.get("zipf_lost_calls", 0) != 0:
        failures.append(
            "zipfian skew workload lost or duplicated calls (adaptive "
            "handoffs must preserve exactly-once settlement)"
        )
    if (
        metrics.get("zipf_adaptive_vs_static_ratio", 0.0)
        < ZIPF_RATIO_FLOOR
    ):
        failures.append(
            "zipf_adaptive_vs_static_ratio "
            f"{metrics.get('zipf_adaptive_vs_static_ratio')} below the "
            f"{ZIPF_RATIO_FLOOR}x acceptance floor"
        )
    if metrics.get("gateway_lost_calls", 0) != 0:
        failures.append(
            "HTTP gateway lost, duplicated, or left unsettled calls (every "
            "request must come back 200 with an exactly-once counter value)"
        )
    if metrics.get("gateway_distinct_keys", 0) < GATEWAY_KEYS_TARGET:
        failures.append(
            f"gateway_distinct_keys {metrics.get('gateway_distinct_keys')} "
            f"below the {GATEWAY_KEYS_TARGET} acceptance target"
        )
    if metrics.get("gateway_requests_per_s", 0.0) < GATEWAY_THROUGHPUT_FLOOR:
        failures.append(
            f"gateway_requests_per_s {metrics.get('gateway_requests_per_s')} "
            f"below the {GATEWAY_THROUGHPUT_FLOOR}/s absolute floor"
        )
    for name in GATED_LOWER_IS_WORSE:
        if name not in baseline:
            failures.append(f"baseline is missing gated metric {name!r}")
            continue
        limit = baseline[name] * (1.0 - TOLERANCE)
        if metrics[name] < limit:
            failures.append(
                f"{name}: {metrics[name]} falls short of baseline "
                f"{baseline[name]} by more than {TOLERANCE:.0%}"
            )
    for name in GATED_HIGHER_IS_WORSE:
        if name not in baseline:
            failures.append(f"baseline is missing gated metric {name!r}")
            continue
        limit = baseline[name] * (1.0 + TOLERANCE)
        if metrics[name] > limit:
            failures.append(
                f"{name}: {metrics[name]} exceeds baseline "
                f"{baseline[name]} by more than {TOLERANCE:.0%}"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_results.json")
    parser.add_argument("--baseline", default="benchmarks/BENCH_baseline.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if gated metrics regress vs the baseline",
    )
    args = parser.parse_args()

    metrics = collect_metrics()
    payload = {
        "tolerance": TOLERANCE,
        "gated": list(GATED_HIGHER_IS_WORSE) + list(GATED_LOWER_IS_WORSE),
        "metrics": metrics,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}:")
    print(json.dumps(metrics, indent=2))

    if not args.check:
        return 0
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"baseline {baseline_path} not found", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())["metrics"]
    failures = check(metrics, baseline)
    if failures:
        print("\nBENCHMARK REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nregression gate green (tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
