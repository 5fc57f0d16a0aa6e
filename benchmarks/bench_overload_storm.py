"""Retry-storm protection: goodput under a poison-pill crash loop.

An open-loop steady workload (first attempts, fixed arrival rate) shares a
component with poison-pill jobs that crash the component mid-method. Every
crash triggers failure detection, an expensive reconciliation (the
per-message scan cost is amplified to model a busy production log), and a
redelivery of the poison request -- which crashes the component again: the
unprotected runtime rides this crash-reconcile loop for the whole window
and steady goodput collapses.

With the overload guards on, the reconciler's redelivery cap parks the
poison requests in the dead-letter topic after ``redelivery_limit`` crash
cycles, the component stays up, and the steady backlog drains. The cap is
the one guard that acts in this storm: the retry budget spends nothing
and the mailbox bound sheds nothing. After the measurement window the
fault is healed and the parked letters are replayed: the acceptance
criterion is *zero lost calls* -- every call either settled exactly once
during the run or settles exactly once on replay.

Gated by the CI regression runner: guards-on goodput must be at least 3x
guards-off, and no call may be lost. All numbers come from the seeded
deterministic simulation, so they are exact.
"""

from __future__ import annotations

from repro.bench import render_table
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.sim import Kernel

from _shared import FULL, emit

WINDOW = 120.0 if FULL else 30.0  # seconds of simulated measurement time
INTERVAL = 0.025  # steady arrivals: one call every 25 ms (40/s, open loop)
POISON_AT = 3.0  # poison jobs land once the steady flow is established
POISON_JOBS = 2
SUPERVISOR_TICK = 0.25  # host-side restart loop cadence
DRAIN_TIMEOUT = 600.0
SEED = 2306

#: The guards-on row's one setting: the retry budget, the backoff and the
#: mailbox bound run at their ``overload`` constants, and no breaker is on
#: (a crash records no breaker failure, so it would never trip here).
GUARDS_ON = dict(redelivery_limit=3)


class Steady(Actor):
    async def ping(self, ctx, n):
        return n


class PoisonJob(Actor):
    healed = False

    async def run(self, ctx, job):
        if not PoisonJob.healed:
            ctx._component.fail()  # crash the hosting component mid-method
            await ctx.sleep(3600.0)  # never reached; the process is dead
        return f"done:{job}"


def _p99(latencies: list[float]) -> float:
    if not latencies:
        return float("inf")
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


def run_storm(guards: bool) -> dict:
    PoisonJob.healed = False
    overrides: dict = {"reconcile_per_message": 0.002}
    overrides.update(GUARDS_ON if guards else {"overload_guard": False})
    config = KarConfig.fast_test().with_overrides(**overrides)
    kernel = Kernel(seed=SEED)
    app = KarApplication.fresh(kernel, config, name="storm")
    steady_name = app.register_actor(Steady)
    poison_name = app.register_actor(PoisonJob)
    app.add_component("victim", (steady_name, poison_name))
    client = app.client()
    app.settle()

    total = int(WINDOW / INTERVAL)
    completions: list[tuple[float, float]] = []  # (issued, settled)
    tasks = []

    async def steady_call(index: int, issued: float):
        ref = actor_proxy(steady_name, f"s{index % 8}")
        await client.invoke(None, ref, "ping", (index,), True)
        completions.append((issued, kernel.now))

    async def load():
        for index in range(total):
            tasks.append(
                kernel.spawn(
                    steady_call(index, kernel.now),
                    client.process,
                    name=f"steady{index}",
                )
            )
            await kernel.sleep(INTERVAL)

    async def poison_call(job: int):
        ref = actor_proxy(poison_name, f"p{job}")
        await client.invoke(None, ref, "run", (job,), True)

    kernel.spawn(load(), client.process, name="load")
    start = kernel.now
    window_end = start + WINDOW
    poison_tasks = []
    restarts = 0
    while kernel.now < window_end:
        if not poison_tasks and kernel.now >= start + POISON_AT:
            poison_tasks = [
                kernel.spawn(
                    poison_call(job), client.process, name=f"poison{job}"
                )
                for job in range(POISON_JOBS)
            ]
        if not app.components["victim"].alive:
            app.restart_component("victim")
            restarts += 1
        kernel.run(until=min(kernel.now + SUPERVISOR_TICK, window_end))

    in_window = [(i, s) for i, s in completions if s <= window_end]
    goodput = len(in_window) / WINDOW
    p99 = _p99([settled - issued for issued, settled in in_window])
    storm_stats = app.stats("overload")

    # Heal the fault, replay anything parked, and drain: the zero-loss
    # acceptance -- every issued call settles exactly once eventually.
    PoisonJob.healed = True
    deadline = kernel.now + DRAIN_TIMEOUT
    replayed = 0
    while kernel.now < deadline:
        if not app.components["victim"].alive:
            app.restart_component("victim")
            restarts += 1
        if app.stats("overload")["dead_letter_depth"]:
            replayed += app.redeliver_dead_letters()["replayed"]
        if not app.stats("calls")["unsettled"] and all(
            t.done() for t in tasks + poison_tasks
        ):
            break
        kernel.run(until=kernel.now + SUPERVISOR_TICK)

    final_stats = app.stats("overload")
    lost = (
        len([t for t in tasks + poison_tasks if not t.done()])
        + len(app.stats("calls")["unsettled"])
        + final_stats["dead_letter_depth"]
    )
    return {
        "label": "guards on" if guards else "guards off",
        "goodput_per_s": goodput,
        "p99_s": p99,
        "completed_in_window": len(in_window),
        "issued": len(tasks),
        "restarts": restarts,
        "parked": final_stats.get("parked", 0),
        "replayed": replayed,
        "lost": lost,
        "storm_dead_letter_depth": storm_stats["dead_letter_depth"],
    }


def measure_all() -> dict:
    on = run_storm(guards=True)
    off = run_storm(guards=False)
    ratio = (
        on["goodput_per_s"] / off["goodput_per_s"]
        if off["goodput_per_s"]
        else float("inf")
    )
    return {"on": on, "off": off, "goodput_ratio": ratio}


def test_overload_guards_protect_goodput_under_storm(benchmark):
    result = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    on, off = result["on"], result["off"]

    emit(
        "overload_storm.txt",
        render_table(
            [
                "Mode",
                "Goodput/s",
                "p99 (s)",
                "Completed",
                "Restarts",
                "Parked",
                "Replayed",
                "Lost",
            ],
            [
                (
                    row["label"],
                    round(row["goodput_per_s"], 2),
                    round(row["p99_s"], 3),
                    f"{row['completed_in_window']}/{row['issued']}",
                    row["restarts"],
                    row["parked"],
                    row["replayed"],
                    row["lost"],
                )
                for row in (on, off)
            ],
            title=(
                f"Retry storm: {POISON_JOBS} poison jobs vs 40 calls/s for "
                f"{WINDOW:.0f}s (goodput ratio "
                f"{result['goodput_ratio']:.1f}x)"
            ),
            digits=3,
        ),
    )
    benchmark.extra_info.update(
        goodput_ratio=result["goodput_ratio"],
        goodput_on=on["goodput_per_s"],
        goodput_off=off["goodput_per_s"],
    )

    # The storm genuinely suppressed the unprotected run ...
    assert off["restarts"] > on["restarts"]
    # ... guards kept at least 3x the goodput through the same fault ...
    assert result["goodput_ratio"] >= 3.0
    # ... the poison requests were parked with their histories ...
    assert on["parked"] >= POISON_JOBS
    assert on["replayed"] >= POISON_JOBS
    # ... and nothing was lost on either side: every call either settled
    # during the run or settled exactly once on replay after the heal.
    assert on["lost"] == 0
    assert off["lost"] == 0
