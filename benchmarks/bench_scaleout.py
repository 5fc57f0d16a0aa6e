"""Multi-worker scale-out: throughput scaling and kill-mid-workload safety.

The paper's deployment (Section 5) is many sidecar processes sharing one
Kafka and one Redis; throughput grows with the process count because each
process is an independent event loop. This benchmark reproduces both halves
of that claim on the simulated cluster runtime (`repro.core.cluster`):

- **scaling** -- the identical sharded fan-out workload on 1, 2, and 4
  worker event loops, with a per-invocation event-loop cost
  (``worker_loop_cost``) so a single loop is a genuine throughput ceiling.
  Gates: >= 1.5x at 2 workers and >= 2x at 4 workers;
- **kill** -- one worker is crashed mid-workload (on each store backend)
  and every in-flight call must still settle exactly once: zero lost
  calls, zero double commits, an empty unsettled set.
"""

from __future__ import annotations

import tempfile

from repro.bench import render_table
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel

from _shared import FULL, emit

COMPONENTS = 8
ACTORS = 64
CALLS = 800 if FULL else 320
LOOP_COST = 0.003

KILL_COUNTERS = 8
KILL_BUMPS = 6 if FULL else 4


class EchoActor(Actor):
    async def echo(self, ctx, n):
        return n + 1


class TallyActor(Actor):
    """Read-then-tail-write commit discipline: a doubled bump is visible."""

    async def bump(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, total):
        await ctx.state.set("total", total)
        return total

    async def get(self, ctx):
        return await ctx.state.get("total", 0)


def _deploy(workers: int, mode: str, root: str | None, seed: int):
    kernel = Kernel(seed=seed)
    config = KarConfig.fast_test().with_overrides(worker_loop_cost=LOOP_COST)
    if mode == "sqlite":
        config = config.with_overrides(
            persistence=PersistenceConfig.sqlite(root)
        )
    app = KarApplication(kernel, config, "scaleout", workers=workers)
    app.register_actor(EchoActor, name="Echo")
    app.register_actor(TallyActor, name="Tally")
    for index in range(COMPONENTS):
        app.add_component(f"comp{index}", ("Echo", "Tally"))
    app.client()
    app.settle()
    return kernel, app


def run_scaleout(workers: int) -> dict:
    """The sharded fan-out workload on ``workers`` event loops."""
    kernel, app = _deploy(workers, "memory", None, seed=11)
    client = app.client()
    start = kernel.now

    async def driver(n):
        return await client.invoke(
            None, actor_proxy("Echo", f"a{n % ACTORS}"), "echo", (n,), True
        )

    tasks = [
        kernel.spawn(driver(n), client.process, name=f"driver:{n}")
        for n in range(CALLS)
    ]
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
    kernel.check_no_crashes()
    makespan = kernel.now - start
    lost = sum(1 for n, value in enumerate(results) if value != n + 1)
    busy = {
        worker_id: round(stats["busy_seconds"], 3)
        for worker_id, stats in app.stats()["workers"].items()
    }
    app.shutdown()
    return {
        "workers": workers,
        "calls": CALLS,
        "makespan_s": makespan,
        "calls_per_s": CALLS / makespan,
        "lost_calls": lost,
        "busy_seconds": busy,
    }


def measure_scaling() -> list[dict]:
    return [run_scaleout(workers) for workers in (1, 2, 4)]


def run_kill(mode: str) -> dict:
    """Crash one of two workers mid-workflow; everything settles once."""
    with tempfile.TemporaryDirectory() as root:
        kernel, app = _deploy(2, mode, root, seed=7)
        client = app.client()

        async def workflow(cid):
            ref = actor_proxy("Tally", f"t{cid}")
            for _ in range(KILL_BUMPS):
                await client.invoke(None, ref, "bump", (1,), True)

        tasks = [
            kernel.spawn(workflow(cid), client.process, name=f"wf:{cid}")
            for cid in range(KILL_COUNTERS)
        ]
        kernel.run(until=kernel.now + 0.05)  # workflows mid-flight
        in_flight = len(app.stats("calls")["unsettled"])
        app.control.kill_worker("w0")
        kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
        kernel.run(until=kernel.now + 5.0)
        unsettled_after = len(app.stats("calls")["unsettled"])
        totals = [
            app.run_call(actor_proxy("Tally", f"t{cid}"), "get")
            for cid in range(KILL_COUNTERS)
        ]
        expected = KILL_BUMPS * KILL_COUNTERS
        commit_total = sum(totals)
        app.shutdown()
        return {
            "mode": mode,
            "in_flight_at_kill": in_flight,
            "unsettled_after": unsettled_after,
            "commit_total": commit_total,
            "expected_total": expected,
            "lost_calls": unsettled_after + max(0, expected - commit_total),
            "double_commits": max(0, commit_total - expected),
        }


def measure_kill() -> list[dict]:
    return [run_kill("memory"), run_kill("sqlite")]


def test_throughput_scales_with_worker_count(benchmark):
    rows = benchmark.pedantic(measure_scaling, rounds=1, iterations=1)
    by_workers = {row["workers"]: row for row in rows}
    single = by_workers[1]
    speedup = {
        workers: by_workers[workers]["calls_per_s"] / single["calls_per_s"]
        for workers in (2, 4)
    }

    emit(
        "scaleout.txt",
        render_table(
            ["Workers", "Calls", "Makespan (s)", "Calls/s", "Speedup",
             "Lost"],
            [
                (
                    row["workers"],
                    row["calls"],
                    round(row["makespan_s"], 3),
                    round(row["calls_per_s"], 1),
                    round(
                        row["calls_per_s"] / single["calls_per_s"], 2
                    ),
                    row["lost_calls"],
                )
                for row in rows
            ],
            title=(
                f"Sharded fan-out ({COMPONENTS} components, {ACTORS} "
                f"actors, loop cost {LOOP_COST * 1000:.0f}ms/call): "
                "throughput by worker count"
            ),
            digits=3,
        ),
    )
    benchmark.extra_info["speedup_2w"] = round(speedup[2], 3)
    benchmark.extra_info["speedup_4w"] = round(speedup[4], 3)

    assert all(row["lost_calls"] == 0 for row in rows)
    # The acceptance gates: two loops halve the ceiling, four keep going.
    assert speedup[2] >= 1.5
    assert speedup[4] >= 2.0


def test_worker_kill_mid_workload_settles_exactly_once(benchmark):
    rows = benchmark.pedantic(measure_kill, rounds=1, iterations=1)

    emit(
        "scaleout_kill.txt",
        render_table(
            ["Backend", "In flight at kill", "Unsettled after",
             "Commits", "Expected", "Lost", "Doubled"],
            [
                (
                    row["mode"],
                    row["in_flight_at_kill"],
                    row["unsettled_after"],
                    row["commit_total"],
                    row["expected_total"],
                    row["lost_calls"],
                    row["double_commits"],
                )
                for row in rows
            ],
            title=(
                "Kill one of two workers mid-workflow: exactly-once "
                "settlement by store backend"
            ),
        ),
    )
    for row in rows:
        benchmark.extra_info[f"{row['mode']}_lost_calls"] = row["lost_calls"]

    for row in rows:
        # The kill landed while work was genuinely in flight.
        assert row["in_flight_at_kill"] > 0
        # 100% of in-flight calls settled, exactly once.
        assert row["unsettled_after"] == 0
        assert row["lost_calls"] == 0
        assert row["double_commits"] == 0
        assert row["commit_total"] == row["expected_total"]
