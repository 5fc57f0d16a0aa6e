"""Ablations: what each design choice of the paper buys, one table apiece.

Every ablation is a ``measure`` function returning the rows of its table
and a ``check`` function asserting the paper's claim on those rows; one
parametrised test runs, renders and checks them all.

- **cancellation** (Section 4.4): a caller fans a blocking call into a busy
  callee actor and its component is killed while the request is still
  queued. With cancellation the runtime elides the execution and answers
  synthetically; without it the orphaned invocation runs to completion
  ("the computation of a result that is not needed anymore", Section 3.6).
- **completion_log** (Section 4.3, future work): "An alternative to
  reconciliation could use Kafka transactions to atomically (1) send the
  caller the call result via the caller's queue and (2) log its completion
  in the callee's queue". One extra record per call buys locally-verifiable
  completions, so failed components' queues are discarded at reconciliation
  instead of lingering until retention expiry.
- **reconciliation** (Section 4.3): "Reconciliation time increases with the
  number of recent messages hence application components." The order rate
  sets the retained backlog; mean reconciliation time must grow with it.
- **tailcall** (Section 2.4): "A tail call is a single message that
  semantically is both a request and a response." A two-step operation
  built from a nested call pays two extra queue trips; the tail-call
  version pays one message per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bench import (
    CLUSTER_PROD,
    FailureCampaign,
    campaign_kar_config,
    render_table,
)
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.reefer import ReeferConfig
from repro.sim import Kernel

from _shared import FULL, emit

# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
CANCELLATION_RUNS = 10 if FULL else 5


class Fanout(Actor):
    async def start(self, ctx):
        return await ctx.call(actor_proxy("Busy", "worker"), "work", 4.0)


class Busy(Actor):
    executed = 0

    async def work(self, ctx, duration):
        Busy.executed += 1
        await ctx.sleep(duration)
        return "done"

    async def occupy(self, ctx, duration):
        await ctx.sleep(duration)
        return "freed"


def run_orphaned_call(seed: int, cancellation: bool) -> tuple[int, int]:
    """``(orphaned executions, elisions)`` of one killed-caller run."""
    Busy.executed = 0
    kernel = Kernel(seed=seed)
    app = KarApplication(
        kernel,
        KarConfig.fast_test().with_overrides(cancellation=cancellation),
    )
    app.register_actor(Fanout)
    app.register_actor(Busy)
    app.add_component("callers", ("Fanout",))
    app.add_component("workers", ("Busy",))
    client = app.client()
    app.settle()
    busy = actor_proxy("Busy", "worker")
    # Occupy the worker so the caller's request stays queued.
    occupier = kernel.spawn(
        client.invoke(None, busy, "occupy", (8.0,), True),
        process=client.process,
    )
    kernel.run(until=kernel.now + 0.5)
    kernel.spawn(
        client.invoke(None, actor_proxy("Fanout", "f"), "start", (), True),
        process=client.process,
    )
    kernel.run(until=kernel.now + 0.5)
    app.kill_component("callers")  # the caller dies with the call queued
    kernel.run_until_complete(occupier, timeout=600.0)
    kernel.run(until=kernel.now + 20.0)
    return Busy.executed, app.trace.count("invoke.elided")


def measure_cancellation() -> list[tuple]:
    rows = []
    for label, cancellation in (("enabled", True), ("disabled", False)):
        runs = [
            run_orphaned_call(seed, cancellation)
            for seed in range(CANCELLATION_RUNS)
        ]
        rows.append(
            (
                label,
                CANCELLATION_RUNS,
                sum(executed for executed, _ in runs),
                sum(elided for _, elided in runs),
            )
        )
    return rows


def check_cancellation(rows: list[tuple]) -> None:
    (_, _, executed_on, elided_on), (_, _, executed_off, elided_off) = rows
    assert elided_on > 0
    assert elided_off == 0
    assert executed_on < executed_off  # wasted work avoided


# ----------------------------------------------------------------------
# transactional completion log
# ----------------------------------------------------------------------
COMPLETION_LOG_FAILURES = 10 if FULL else 4


def run_completion_log_campaign(completion_log: bool) -> tuple[float, int, float]:
    """``(messages per simulated second, retained backlog, reconciliation
    avg)``. The two campaigns inject the same failures but run for
    different simulated times, so message totals do not compare."""
    campaign = FailureCampaign(
        seed=321,
        failures=COMPLETION_LOG_FAILURES,
        kar_config=campaign_kar_config().with_overrides(
            completion_log=completion_log
        ),
        reefer_config=ReeferConfig(
            order_rate=0.5, anomaly_rate=0.0, containers_per_depot=300
        ),
    )
    result = campaign.run()
    assert not result.invariant_violations, result.invariant_violations
    broker = campaign.reefer.app.broker
    backlog = sum(
        len(partition)
        for partition in broker.topics[campaign.reefer.app.topic_name]
        .partitions.values()
    )
    reconciliation = result.phase_stats()["Reconciliation"]
    rate = broker.produce_record_count / result.sim_seconds
    return rate, backlog, reconciliation["avg"]


def measure_completion_log() -> list[tuple]:
    return [
        ("transactional completion log", *run_completion_log_campaign(True)),
        ("retention-based (default)", *run_completion_log_campaign(False)),
    ]


def check_completion_log(rows: list[tuple]) -> None:
    with_log, without_log = rows
    # The transaction writes more messages for the same work...
    assert with_log[1] > without_log[1]
    # ...but dead queues are discarded eagerly, shrinking the live backlog.
    assert with_log[2] <= without_log[2]


# ----------------------------------------------------------------------
# reconciliation time vs backlog
# ----------------------------------------------------------------------
RECONCILIATION_RATES = (0.2, 0.5, 1.0, 2.0) if FULL else (0.2, 0.6, 1.2)
RECONCILIATION_FAILURES = 8 if FULL else 4


def measure_reconciliation() -> list[tuple]:
    rows = []
    for rate in RECONCILIATION_RATES:
        campaign = FailureCampaign(
            seed=123,
            failures=RECONCILIATION_FAILURES,
            reefer_config=ReeferConfig(
                order_rate=rate, anomaly_rate=0.0, containers_per_depot=400
            ),
            min_gap=60.0,
            max_gap=90.0,
        )
        result = campaign.run()
        assert not result.invariant_violations, result.invariant_violations
        stats = result.phase_stats()["Reconciliation"]
        rows.append((rate, result.orders_submitted, stats["avg"], stats["max"]))
    return rows


def check_reconciliation(rows: list[tuple]) -> None:
    averages = [row[2] for row in rows]
    # Monotone growth with the injected load.
    assert averages == sorted(averages)
    assert averages[-1] > averages[0] * 1.2


# ----------------------------------------------------------------------
# tail call vs nested call
# ----------------------------------------------------------------------
TAILCALL_ITERATIONS = 500 if FULL else 120


class Chained(Actor):
    async def first_tail(self, ctx, v):
        return ctx.tail_call(None, "second", v + 1)

    async def first_nested(self, ctx, v):
        return await ctx.call(ctx.self_ref, "second", v + 1)

    async def second(self, ctx, v):
        return v * 2


def run_chained(method: str) -> tuple[float, float]:
    """``(median round trip ms, broker messages per operation)``."""
    kernel = Kernel(seed=9)
    app = KarApplication(kernel, CLUSTER_PROD.kar_config())
    app.register_actor(Chained)
    app.add_component("workers", ("Chained",))
    client = app.client()
    app.settle()
    ref = actor_proxy("Chained", "x")
    samples = []
    produced_before = app.broker.produce_count

    async def driver():
        await client.invoke(None, ref, method, (0,), True)  # warm-up
        for _ in range(TAILCALL_ITERATIONS):
            start = kernel.now
            value = await client.invoke(None, ref, method, (20,), True)
            assert value == 42
            samples.append(kernel.now - start)

    task = kernel.spawn(driver(), client.process)
    kernel.run_until_complete(task, timeout=36000.0)
    messages = (app.broker.produce_count - produced_before) / (
        TAILCALL_ITERATIONS + 1
    )
    samples.sort()
    return samples[len(samples) // 2] * 1000.0, messages


def measure_tailcall() -> list[tuple]:
    return [
        ("tail call", *run_chained("first_tail")),
        ("nested call", *run_chained("first_nested")),
    ]


def check_tailcall(rows: list[tuple]) -> None:
    (_, tail_ms, tail_msgs), (_, nested_ms, nested_msgs) = rows
    # The tail call needs fewer messages and is faster.
    assert tail_msgs < nested_msgs
    assert tail_ms < nested_ms


# ----------------------------------------------------------------------
# the one test
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ablation:
    name: str  # test id; the table lands in ``ablation_<name>.txt``
    title: str
    headers: tuple[str, ...]
    measure: Callable[[], list[tuple]]
    check: Callable[[list[tuple]], None]
    digits: int = 2


ABLATIONS = (
    Ablation(
        "cancellation",
        "Ablation: cancellation of callees whose caller failed",
        ("Cancellation", "Runs", "Orphaned executions", "Elisions"),
        measure_cancellation,
        check_cancellation,
    ),
    Ablation(
        "completion_log",
        "Ablation: transactional completion log vs retention-based "
        f"evidence ({COMPLETION_LOG_FAILURES} failures, same workload)",
        ("Mode", "Messages / simulated s", "Retained backlog",
         "Reconciliation avg (s)"),
        measure_completion_log,
        check_completion_log,
    ),
    Ablation(
        "reconciliation",
        "Ablation: reconciliation time vs message backlog",
        ("Order rate (/s)", "Orders", "Reconciliation avg (s)",
         "Reconciliation max (s)"),
        measure_reconciliation,
        check_reconciliation,
    ),
    Ablation(
        "tailcall",
        "Ablation: tail call vs nested call (ClusterProd, 2 steps)",
        ("Chaining", "Median RTT (ms)", "Broker messages/op"),
        measure_tailcall,
        check_tailcall,
    ),
)


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a.name)
def test_ablation(benchmark, ablation):
    rows = benchmark.pedantic(ablation.measure, rounds=1, iterations=1)
    emit(
        f"ablation_{ablation.name}.txt",
        render_table(
            ablation.headers, rows, title=ablation.title, digits=ablation.digits
        ),
    )
    benchmark.extra_info["rows"] = [list(row) for row in rows]
    ablation.check(rows)
