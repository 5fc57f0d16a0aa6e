"""Zipfian skew: adaptive placement vs. hosting by count alone.

Hosting balances component *counts*; a zipfian workload (s = 2.0 over 8
components, so the hottest partition draws ~65% of all calls) pins one
worker loop while three idle. The placement controller closes the gap
live: it detects the hot component from the decaying load plane, splits it
into sub-partitions, and spreads the children across workers -- mid-burst,
over the same drain -> fence -> replay handoff that covers crashes.

Both modes run the identical closed-loop driver pool over the same call
schedule on 4 workers; the only difference is the controller: the static
row runs none (``app.control.placement_ctl = None``), the adaptive row runs
the policy of ``repro.core.placement_ctl``.
Gates: adaptive throughput >=
1.5x static, zero lost and zero doubled commits in both modes, and at
least one split actually performed in the adaptive run.
"""

from __future__ import annotations

import random

from repro.bench import render_table
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.sim import Kernel

from _shared import FULL, emit

WORKERS = 4
COMPONENTS = 8
# High enough that the worker event loop -- not per-actor mailbox
# serialization -- is the binding constraint; that is the regime where
# placement (which worker runs the partition) decides throughput.
LOOP_COST = 0.01
ZIPF_S = 2.0
ACTORS_PER_COMPONENT = 8
CALLS = 3000 if FULL else 1800
#: Closed-loop driver pool. Closed-loop keeps each partition's queue
#: bounded by the in-flight window, so a mid-burst handoff strands a
#: bounded backlog -- the benchmark then measures placement, not the cost
#: of replaying an unbounded open-loop queue.
DRIVERS = 48

#: Acceptance floor: adaptive placement must beat static hosting by this
#: factor under the skewed workload.
RATIO_FLOOR = 1.5


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


def _deploy(seed: int):
    kernel = Kernel(seed=seed)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=LOOP_COST,
        # Under sustained overload the hot component never fully quiesces;
        # a short drain keeps each handoff's stop-the-partition window tight.
        drain_timeout=0.3,
    )
    app = KarApplication(kernel, config, "zipf", workers=WORKERS)
    app.register_actor(TallyActor, name="Tally")
    for index in range(COMPONENTS):
        app.add_component(f"comp{index}", ("Tally",))
    app.client()
    app.settle()
    return kernel, app


def _actor_pools(app) -> list[list[str]]:
    """Per-component actor-id pools, bucketed by the placement hash."""
    candidates = sorted(
        name for name, types in app.component_types.items() if types
    )
    pools: dict[str, list[str]] = {name: [] for name in candidates}
    index = 0
    while any(len(pool) < ACTORS_PER_COMPONENT for pool in pools.values()):
        actor_id = f"t{index}"
        ref = actor_proxy("Tally", actor_id)
        home = candidates[ref.stable_hash() % len(candidates)]
        if len(pools[home]) < ACTORS_PER_COMPONENT:
            pools[home].append(actor_id)
        index += 1
    return [pools[name] for name in candidates]


def _zipf_schedule(pools: list[list[str]], seed: int) -> list[str]:
    """The per-call actor-id sequence: zipf over components, round-robin
    within each component's pool. Identical for both modes."""
    rng = random.Random(seed)
    ranks = list(range(len(pools)))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in ranks]
    cursors = [0] * len(pools)
    schedule = []
    for _ in range(CALLS):
        component = rng.choices(ranks, weights=weights)[0]
        pool = pools[component]
        schedule.append(pool[cursors[component] % len(pool)])
        cursors[component] += 1
    return schedule


def run_mode(adaptive: bool) -> dict:
    kernel, app = _deploy(seed=17)
    if not adaptive:
        app.control.placement_ctl = None
    client = app.client()
    pools = _actor_pools(app)
    schedule = _zipf_schedule(pools, seed=99)
    expected: dict[str, int] = {}
    for actor_id in schedule:
        expected[actor_id] = expected.get(actor_id, 0) + 1

    start = kernel.now

    async def driver(lane):
        for actor_id in schedule[lane::DRIVERS]:
            ref = actor_proxy("Tally", actor_id)
            await client.invoke(None, ref, "bump", (1,), True)

    tasks = [
        kernel.spawn(driver(lane), client.process, name=f"driver:{lane}")
        for lane in range(DRIVERS)
    ]
    kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
    kernel.check_no_crashes()
    makespan = kernel.now - start
    deadline = kernel.now + 30.0  # let the tail (and any merges) settle
    while kernel.now < deadline and app.stats("calls")["unsettled"]:
        kernel.run(until=kernel.now + 1.0)
    kernel.run(until=kernel.now + 2.0)

    totals = {
        actor_id: app.run_call(actor_proxy("Tally", actor_id), "get")
        for actor_id in expected
    }
    lost = sum(
        max(0, want - totals[actor_id])
        for actor_id, want in expected.items()
    )
    doubled = sum(
        max(0, totals[actor_id] - want)
        for actor_id, want in expected.items()
    )
    unsettled = len(app.stats("calls")["unsettled"])
    placement = app.stats("placement")
    app.shutdown()
    return {
        "mode": "adaptive" if adaptive else "static",
        "calls": CALLS,
        "makespan_s": makespan,
        "calls_per_s": CALLS / makespan,
        "lost_calls": lost + unsettled,
        "double_commits": doubled,
        "migrations": placement["migrations"],
        "splits": placement["splits"],
        "merges": placement["merges"],
    }


def measure_all() -> dict:
    static = run_mode(adaptive=False)
    adaptive = run_mode(adaptive=True)
    return {
        "static": static,
        "adaptive": adaptive,
        "ratio": adaptive["calls_per_s"] / static["calls_per_s"],
    }


def test_adaptive_beats_static_under_zipfian_skew(benchmark):
    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    static, adaptive = rows["static"], rows["adaptive"]

    emit(
        "zipf_skew.txt",
        render_table(
            ["Mode", "Calls", "Makespan (s)", "Calls/s", "Migrations",
             "Splits", "Lost", "Doubled"],
            [
                (
                    row["mode"],
                    row["calls"],
                    round(row["makespan_s"], 3),
                    round(row["calls_per_s"], 1),
                    row["migrations"],
                    row["splits"],
                    row["lost_calls"],
                    row["double_commits"],
                )
                for row in (static, adaptive)
            ],
            title=(
                f"Zipfian skew (s={ZIPF_S}, {COMPONENTS} components, "
                f"{WORKERS} workers, loop cost {LOOP_COST * 1000:.0f}ms): "
                "static hosting vs. adaptive placement"
            ),
            digits=3,
        ),
    )
    benchmark.extra_info["adaptive_vs_static_ratio"] = round(
        rows["ratio"], 3
    )

    # Exactly-once is non-negotiable in both modes.
    for row in (static, adaptive):
        assert row["lost_calls"] == 0
        assert row["double_commits"] == 0
    # Static mode must not act (it is the control arm)...
    assert static["migrations"] == 0 and static["splits"] == 0
    # ...while adaptive mode actually split the hot component and won.
    assert adaptive["splits"] >= 1
    assert rows["ratio"] >= RATIO_FLOOR
