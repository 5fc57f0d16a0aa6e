"""The repo's wall-clock benchmark: one command, every metric by name.

Two ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process. ``--trace 0`` measures the
    end-to-end metrics with tracing off; ``--trace 1`` runs the count window
    under the span recorder and reports the per-layer metrics. The last
    line of stdout is the result object ``BENCHMARK.json`` describes.

``python3 perf/run.py [--seed N] [--workload W] [--smoke] [--no-traced]
[--repeat K] [--out FILE]``
    The suite: every workload (or the one named) in a fresh subprocess
    each, untraced then traced, printed as tables; ``--repeat K`` makes K
    result sets with seeds N..N+K-1 and compares the first with the last.

It claims no gain: it defines what later changes are measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
DEFAULT_SEED = 1


def use_repo_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    The benchmark measures the program in the checkout it runs from and
    carries no copy of it: without ``src/repro`` there is nothing to run.
    """
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"perf/run.py: no program to measure at {source}/repro")
    for path in (str(source), str(PERF_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_benchmark() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def calibrate(iterations: int = 1_000_000) -> float:
    """ns per iteration of a fixed pure-Python body: how fast this machine
    runs the interpreter right now, to read absolute numbers against."""
    accumulator = 0
    start = time.perf_counter_ns()
    for index in range(iterations):
        accumulator = (accumulator + index * index) & 0xFFFF
    return (time.perf_counter_ns() - start) / iterations


def fingerprint() -> dict[str, Any]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one run, in this process
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    started = time.perf_counter()
    use_repo_source()
    import workloads

    import_s = time.perf_counter() - started
    if workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}"
        )
    calib = calibrate(20_000 if smoke else 1_000_000)
    scale = workloads.SMOKE if smoke else workloads.FULL
    result = workloads.WORKLOADS[workload].run(
        seed=seed, seconds=0.0 if smoke else seconds, trace=trace, scale=scale,
        import_s=import_s,
    )
    result.info.update(
        import_s=import_s, workload=workload, seed=seed, trace=int(trace),
        calib_ns_per_iter=calib, run_wall_s=time.perf_counter() - started,
    )
    print(json.dumps({"info": result.info}))
    print(result.contract_line(), flush=True)
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# the suite: a subprocess per workload and trace mode
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(
            f"{workload} (trace {trace}) printed no result, exit {done.returncode}"
        )
    run = json.loads(lines[-1])
    run["info"] = json.loads(lines[-2])["info"]
    run["workload"] = workload
    run["trace"] = trace
    run["seed"] = seed
    run["exit_code"] = done.returncode
    return run


def print_table(title: str, names: list[str], runs: list[dict[str, Any]]) -> None:
    print(f"\n{title}")
    width = max(len(name) for name in names)
    header = "".join(f"{run['workload'][:22]:>24}" for run in runs)
    print(f"{'metric':<{width}} {'unit':<6}{header}")
    for name in names:
        unit = runs[0]["metrics"][name]["unit"]
        cells = "".join(
            f"{run['metrics'][name]['value']:>24.4f}" for run in runs
        )
        print(f"{name:<{width}} {unit:<6}{cells}")


def print_set(runs: list[dict[str, Any]], benchmark: dict[str, Any]) -> None:
    timed = [run for run in runs if not run["trace"]]
    traced = [run for run in runs if run["trace"]]
    if timed:
        names = [metric["name"] for metric in benchmark["end_to_end"]]
        print_table("End-to-end metrics (tracing off)", names, timed)
        for run in timed:
            info = run["info"]
            rates = info["per_segment"]["calls_per_s"]
            print(
                f"  {run['workload']}: failed {run['failed']}/{run['attempted']}"
                f" ops; {info['segments']} segments of {info['segment_ops']} ops,"
                f" calls_per_s min {min(rates):.1f} max {max(rates):.1f};"
                f" {info['samples_per_segment']} latency samples a segment,"
                f" tail p{round(info['tail_percentile'] * 100)} with"
                f" {info['samples_beyond_tail']} beyond;"
                f" calib {info['calib_ns_per_iter']:.1f} ns/iter"
            )
    if traced:
        names = [metric["name"] for metric in benchmark["per_layer"]]
        print_table("Per-layer metrics (traced count window)", names, traced)
        # Raw CPU per call over the same operations the traced run executed.
        untraced_cpu = {
            run["workload"]: statistics.mean(
                run["info"]["per_segment"]["cpu_us_per_call"][
                    : run["info"]["window_segments"]
                ]
            )
            for run in timed
        }
        for run in traced:
            info = run["info"]
            print(
                f"\n  {run['workload']}: {info['traced_ops']} traced ops"
                f" (window complete: {info['window_complete']}),"
                f" root {info['root_us_per_call']:.1f} us/call,"
                f" {info['spans_recorded']} spans, {info['trace_file']}"
            )
            base = untraced_cpu.get(run["workload"])
            if base:
                share = (info["traced_cpu_us_per_call"] - base) / base
                print(
                    f"  trace.overhead_share {share:+.3f}"
                    f" ({info['traced_cpu_us_per_call']:.1f} traced vs"
                    f" {base:.1f} us/call untraced, both as measured)"
                )
            print("  self time as a share of the root span:")
            for name, share in sorted(
                info["shares_of_root"].items(), key=lambda item: -item[1]
            ):
                if share >= 0.0005:
                    print(f"    {name:<36}{share:>8.3f}")


def run_suite(args: argparse.Namespace) -> int:
    import compare

    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    machine = fingerprint()
    print(f"machine: {machine}")
    sets = []
    status = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        print(f"\n=== result set {repeat + 1}/{args.repeat}, seed {seed} ===")
        runs = []
        for name in names:
            for trace in (0,) if args.no_traced else (0, 1):
                run = run_child(name, seed, seconds, trace, args.smoke)
                runs.append(run)
                if run["exit_code"] or not run["correct"]:
                    status = 1
                    print(f"FAILED CHECK: {name} trace {trace}: {run['info']}")
        print_set(runs, benchmark)
        sets.append({"seed": seed, "runs": runs})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"machine": machine, "smoke": args.smoke, "sets": sets}, handle, indent=1
            )
        print(f"\nwrote {args.out}")
    if len(sets) >= 2:
        print("\n=== first result set against the last ===")
        status |= compare.report(sets[:1], sets[-1:], benchmark)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seconds", type=float,
                        help="measure this long (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process, tracing off or on")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed operation counts (seconds is ignored)")
    parser.add_argument("--no-traced", action="store_true",
                        help="suite: skip the traced runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: number of result sets, seeds N..N+K-1")
    parser.add_argument("--out", help="suite: write the result sets to this file")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
