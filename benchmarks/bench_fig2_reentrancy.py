"""Figure 2: reentrancy with and without the happen-before guarantee.

A.main -> B.task -> A.callback, with A's host failing while task runs.
Under KAR's retry orchestration (Figure 2a) the retried main starts only
after the in-flight task/callback chain settles. An at-least-once runtime
that redelivers immediately (Figure 2b; the Akka/Ray behaviour of Sections
1 and 7) lets the retried main execute concurrently with the *stale*
callback from the previous attempt.

Executions are tagged with the attempt number, so a callback belonging to
attempt N overlapping a main of attempt M > N is exactly the Figure 2b
race. That interval check is the independent reference for the guarantee
monitor (``repro.obs``), which reads only the trace: it must flag every
baseline run that shows the race and no orchestrated run.
"""

from repro.bench import render_table
from repro.core import Actor, KarConfig, KarApplication, actor_proxy
from repro.obs import guarantee_violations
from repro.sim import Kernel

from _shared import FULL, emit

SEEDS = range(20 if FULL else 8)


class RA(Actor):
    intervals = []
    attempt = 0

    async def main(self, ctx, v):
        RA.attempt += 1
        attempt = RA.attempt
        begin = ctx.now
        result = await ctx.call(actor_proxy("RB", "b"), "task", v, attempt)
        RA.intervals.append(("main", attempt, begin, ctx.now))
        return result

    async def callback(self, ctx, v, attempt):
        begin = ctx.now
        await ctx.sleep(3.0)
        RA.intervals.append(("callback", attempt, begin, ctx.now))
        return v


class RB(Actor):
    async def task(self, ctx, v, attempt):
        await ctx.sleep(2.0)
        return await ctx.call(actor_proxy("RA", "a"), "callback", v, attempt)


def stale_overlap(intervals):
    """A callback from an older attempt runs concurrently with a newer
    main: the Figure 2b race."""
    mains = [(a, b, e) for kind, a, b, e in intervals if kind == "main"]
    callbacks = [(a, b, e) for kind, a, b, e in intervals
                 if kind == "callback"]
    for main_attempt, mb, me in mains:
        for cb_attempt, cb, ce in callbacks:
            if cb_attempt < main_attempt and mb < ce and cb < me:
                return True
    return False


def run_once(seed, orchestrate):
    RA.intervals = []
    RA.attempt = 0
    kernel = Kernel(seed=seed)
    app = KarApplication(
        kernel,
        KarConfig.fast_test().with_overrides(
            orchestrate_retries=orchestrate, cancellation=False
        ),
    )
    app.register_actor(RA)
    app.register_actor(RB)
    app.add_component("ra-1", ("RA",))
    app.add_component("ra-2", ("RA",))
    app.add_component("rb", ("RB",))
    client = app.client()
    app.settle()
    ref = actor_proxy("RA", "a")
    task = kernel.spawn(
        client.invoke(None, ref, "main", (7,), True),
        process=client.process,
    )
    kernel.run(until=kernel.now + 0.8)  # task is mid-sleep on rb
    host = next(
        name for name, comp in app.components.items()
        if comp.alive and ref in comp._instances
    )
    app.kill_component(host)  # only A's host dies; the chain survives on rb
    value = kernel.run_until_complete(task, timeout=600.0)
    assert value == 7
    kernel.run(until=kernel.now + 5.0)  # settle: live components go quiescent
    return stale_overlap(RA.intervals), bool(guarantee_violations(app))


def _sweep():
    return {
        orchestrate: [run_once(seed, orchestrate) for seed in SEEDS]
        for orchestrate in (True, False)
    }


def test_fig2_overlap_with_and_without_orchestration(benchmark):
    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        (
            label,
            len(SEEDS),
            sum(overlap for overlap, _ in runs[orchestrate]),
            sum(flagged for _, flagged in runs[orchestrate]),
        )
        for label, orchestrate in (
            ("KAR (retry orchestration)", True),
            ("at-least-once baseline", False),
        )
    ]
    emit(
        "fig2_reentrancy.txt",
        render_table(
            ["Runtime", "Runs", "Stale main/callback overlaps",
             "Flagged by the guarantee monitor"],
            rows,
            title="Figure 2: reentrancy under caller failure",
        ),
    )
    (_, _, kar_overlaps, kar_flagged), (_, _, baseline_overlaps, _) = rows
    benchmark.extra_info.update(
        kar_overlaps=kar_overlaps, baseline_overlaps=baseline_overlaps
    )
    # Figure 2a: KAR never overlaps. Figure 2b: the baseline does.
    assert kar_overlaps == 0
    assert baseline_overlaps > 0
    # The monitor sees what the intervals show: every baseline race, and
    # nothing in an orchestrated run.
    assert kar_flagged == 0
    for seed, (overlap, flagged) in zip(SEEDS, runs[False]):
        assert flagged or not overlap, f"seed {seed}: race not flagged"
