"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Runs every workload at ``--smoke`` operation counts in process, untraced and
traced, and checks the printed names against ``BENCHMARK.json``; then hands
each correctness checker a doctored response, because a checker that cannot
fail is not a check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_repo_source()

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

from repro.sim import Kernel  # noqa: E402

BENCHMARK = run.load_benchmark()
NAMES = list(workloads.WORKLOADS)


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def smoke(name: str, trace: bool, capsys) -> tuple[int, dict]:
    code = run.run_one(name, seed=3, seconds=0.0, trace=trace, smoke=True)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_names_the_code_exactly():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
    assert units("end_to_end") == workloads.END_TO_END_UNITS
    assert units("per_layer") == workloads.LAYER_UNITS
    assert BENCHMARK["paths"] == ["perf"]
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_prints_every_end_to_end_metric(name, capsys):
    code, result = smoke(name, False, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert printed == units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_prints_every_per_layer_metric(name, capsys):
    schedule = Kernel.schedule
    code, result = smoke(name, True, capsys)
    assert code == 0 and result["failed"] == 0
    printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert printed == units("per_layer")
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert values["sim.kernel.events_per_call"] > 0
    assert values["mq.broker.fetch_busy_us_per_call"] > 0
    durable = name.endswith("_sqlite")
    assert (values["durable_bytes_per_call"] > 0) == durable
    assert (values["persist.framing.decode_us_per_call"] > 0) == durable
    assert (values["net.bridge.submit_to_settle_ms"] > 0) == name.startswith("gateway")
    assert (values["mq.log.replay_ms_per_cycle"] > 0) == name.startswith("crash")
    # The seams come off again: the traced run leaves the program as it was.
    assert Kernel.schedule is schedule


def test_a_doctored_actor_fails_the_run(monkeypatch, capsys):
    async def lying_echo(self, ctx, value):
        return value + "?"

    monkeypatch.setattr(workloads.Echo, "echo", lying_echo)
    code, result = smoke("echo_serial_mem", False, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_checkers_fail_on_doctored_responses():
    assert workloads.check_echo("x", ["x", "x"]) == 0
    assert workloads.check_echo("x", ["x", "y"]) == 1

    sent = {7: 3, 9: 1}
    assert workloads.check_counter_sums(sent, {7: [3, 6], 9: [1, 1]}) == 0
    # executed twice: the counter skipped a value (1, 2, 4)
    assert workloads.check_counter_sums(sent, {7: [3, 7], 9: [1, 1]}) == 1
    # a reply lost
    assert workloads.check_counter_sums(sent, {7: [2, 3], 9: [1, 1]}) == 1
    # a reply for a key nobody asked about
    assert workloads.check_counter_sums(sent, {7: [3, 6], 9: [1, 1], 5: [1, 1]}) == 1

    assert workloads.check_recovery(400, 400, 0, in_flight=100) == 0
    assert workloads.check_recovery(401, 400, 0, in_flight=100) == 1
    assert workloads.check_recovery(400, 400, 2, in_flight=100) == 2
    assert workloads.check_recovery(400, 400, 0, in_flight=0) == 400


def test_span_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span(ROOT):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    root_total = tracer.totals[ROOT][1]
    assert sum(total[2] for total in tracer.totals.values()) == root_total
    assert tracer.count("a") == 2
    assert abs(sum(tracer.shares().values()) - 1.0) < 1e-9
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]


def test_compare_verdicts():
    assert compare.verdict([100.0], [105.0], "lower", 0.10)[0] == "ok"
    assert compare.verdict([100.0], [115.0], "lower", 0.10)[0] == "regressed"
    assert compare.verdict([100.0], [85.0], "higher", 0.10)[0] == "regressed"
    assert compare.verdict([100.0], [115.0], "higher", 0.10)[0] == "ok"
    noisy = [80.0, 100.0, 100.0, 130.0]
    assert compare.verdict(noisy, [101.0] * 4, "lower", 0.10)[0] == "unresolved"


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path):
    shutil.copytree(run.PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={},
    )
    assert done.returncode != 0
    assert done.stdout == ""
