"""Fan-in throughput: the send outbox amortizes produce round trips.

32 concurrent clients hammer actors hosted by a single worker component --
the "dedicated message queue per component" design of Section 4.1 taken to
its RTT-bound extreme: every request and every response is one broker
record, and before the batched transport each record paid one full produce
round trip. With the outbox, envelopes accumulated within the router's
``SEND_LINGER`` coalesce into one ``produce_batch`` round trip per flush.

Three transports over the identical workload, each a setting of the
``repro.core.router`` constants made for its run and restored after it:

- **unbatched** -- ``SEND_BATCH_MAX = 1``: one produce round trip per
  record, the pre-refactor accounting (sanity-checked: round trips ==
  records);
- **coalesce** -- the default ``SEND_LINGER = 0.0``: only
  same-event-loop-turn sends batch, zero added latency;
- **linger 2ms** -- ``SEND_LINGER = 0.002``: bursts within the window batch.

The unbatched transport's *round-trip count* is the pre-refactor number
(exactly one produce per record); its latency column overstates the old
transport, whose per-caller sends overlapped, so compare latency between
the two batched rows and round trips against the unbatched row.
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc
from unittest import mock

from repro.core import Actor, KarApplication, KarConfig, actor_proxy, router
from repro.persist import PersistenceConfig
from repro.sim import Kernel
from repro.bench import render_table

from _shared import FULL, emit, maybe_profile

FAN_IN = 32
CALLS = 60 if FULL else 15
STATE_CALLS = 30 if FULL else 8


class EchoActor(Actor):
    async def echo(self, ctx, payload):
        return payload


class LedgerActor(Actor):
    """A stateful actor: every call reads and writes persisted state."""

    async def add(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        await ctx.state.set_multiple({"total": total + amount, "last": amount})
        return total + amount


def run_fanout(label: str) -> dict:
    kernel = Kernel(seed=11)
    app = KarApplication(kernel, KarConfig.fast_test())
    app.register_actor(EchoActor, name="Echo")
    app.add_component("workers", ("Echo",))
    client = app.client()
    app.settle()

    refs = [actor_proxy("Echo", f"a{i}") for i in range(FAN_IN)]
    samples: list[float] = []
    round_trips_before = app.broker.produce_count
    records_before = app.broker.produce_record_count

    async def driver(ref):
        for _ in range(CALLS):
            start = kernel.now
            await client.invoke(None, ref, "echo", ("x",), True)
            samples.append(kernel.now - start)

    tasks = [
        kernel.spawn(driver(ref), client.process, name=f"driver:{ref.id}")
        for ref in refs
    ]
    kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
    kernel.check_no_crashes()
    samples.sort()
    stats = app.stats("transport")
    return {
        "label": label,
        "round_trips": app.broker.produce_count - round_trips_before,
        "records": app.broker.produce_record_count - records_before,
        "largest_batch": stats["largest_batch"],
        "median_ms": samples[len(samples) // 2] * 1000.0,
    }


def measure_all():
    with mock.patch.object(router, "SEND_BATCH_MAX", 1):
        rows = [run_fanout("unbatched (batch_max=1)")]
    rows.append(run_fanout("coalesce (linger=0)"))
    with mock.patch.object(router, "SEND_LINGER", 0.002):
        rows.append(run_fanout("linger 2ms"))
    return rows


def run_stateful() -> dict:
    """The stateful fan-in: every call pays store reads and writes, over
    real sqlite persistence, so store round trips and durable bytes move.

    Runs under tracemalloc to report the allocation count; simulated time
    cannot see the tracer's slowdown.
    """
    import os
    import time

    with tempfile.TemporaryDirectory() as root:
        kernel = Kernel(seed=12)
        config = KarConfig.fast_test().with_overrides(
            persistence=PersistenceConfig.sqlite(root)
        )
        app = KarApplication.fresh(kernel, config, name="fanout")
        app.register_actor(LedgerActor, name="Ledger")
        app.add_component("workers", ("Ledger",))
        client = app.client()
        app.settle()

        refs = [actor_proxy("Ledger", f"l{i}") for i in range(FAN_IN)]
        samples: list[float] = []
        expected = sum(range(STATE_CALLS))
        rts_before = app.store.round_trips
        ops_before = app.store.operation_count

        async def driver(ref):
            total = 0
            for n in range(STATE_CALLS):
                start = kernel.now
                total = await client.invoke(None, ref, "add", (n,), True)
                samples.append(kernel.now - start)
            assert total == expected

        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        wall_start = time.perf_counter()
        tasks = [
            kernel.spawn(driver(ref), client.process, name=f"driver:{ref.id}")
            for ref in refs
        ]
        kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
        wall_seconds = time.perf_counter() - wall_start
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        kernel.check_no_crashes()

        samples.sort()
        calls = len(samples)
        alloc_blocks = sum(
            stat.count_diff
            for stat in after.compare_to(before, "filename")
            if stat.count_diff > 0
        )
        journal_bytes = os.path.getsize(os.path.join(root, "fanout.journal"))
        stats = app.stats("store")
        app.shutdown()
        return {
            "store_round_trips": app.store.round_trips - rts_before,
            "store_operations": app.store.operation_count - ops_before,
            "largest_pipeline_batch": stats["largest_pipeline_batch"],
            "median_ms": samples[calls // 2] * 1000.0,
            "alloc_blocks_per_call": alloc_blocks / calls,
            "journal_bytes": journal_bytes,
            "wall_seconds": wall_seconds,
        }


def test_fanout_batching_amortizes_produce_round_trips(benchmark):
    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    by_label = {row["label"]: row for row in rows}
    unbatched = by_label["unbatched (batch_max=1)"]
    coalesce = by_label["coalesce (linger=0)"]
    linger = by_label["linger 2ms"]

    emit(
        "throughput_fanout.txt",
        render_table(
            ["Transport", "Produce RTs", "Records", "Largest batch",
             "Median call (ms)"],
            [
                (r["label"], r["round_trips"], r["records"],
                 r["largest_batch"], round(r["median_ms"], 3))
                for r in rows
            ],
            title=(
                f"Fan-in {FAN_IN} x {CALLS} calls through one worker: "
                "produce round trips by transport"
            ),
            digits=3,
        ),
    )
    benchmark.extra_info["unbatched_round_trips"] = unbatched["round_trips"]
    benchmark.extra_info["linger_round_trips"] = linger["round_trips"]

    # Identical workload: the same records land under every transport.
    assert unbatched["records"] == coalesce["records"] == linger["records"]
    # SEND_BATCH_MAX = 1 restores the pre-refactor accounting exactly: one
    # produce round trip per appended record.
    assert unbatched["round_trips"] == unbatched["records"]
    # Headline: the lingered outbox needs >= 3x fewer round trips at
    # fan-in 32 (in practice it is closer to the fan-in factor itself).
    assert unbatched["round_trips"] >= 3 * linger["round_trips"]
    assert linger["largest_batch"] > 1
    # Zero linger already coalesces same-instant bursts for free.
    assert coalesce["round_trips"] <= unbatched["round_trips"]


def test_stateful_pipeline_coalesces_store_round_trips(benchmark):
    row = benchmark.pedantic(
        lambda: maybe_profile("fanout_stateful", run_stateful),
        rounds=1,
        iterations=1,
    )
    emit(
        "throughput_fanout_stateful.txt",
        render_table(
            ["Store ops", "Store RTs", "Largest batch", "Median call (ms)",
             "Allocs/call", "Journal bytes"],
            [
                (row["store_operations"], row["store_round_trips"],
                 row["largest_pipeline_batch"], round(row["median_ms"], 3),
                 round(row["alloc_blocks_per_call"], 1), row["journal_bytes"])
            ],
            title=(
                f"Stateful fan-in {FAN_IN} x {STATE_CALLS} calls over sqlite "
                "persistence: store round trips, latency, and durable bytes"
            ),
            digits=3,
        ),
    )
    benchmark.extra_info["store_round_trips"] = row["store_round_trips"]
    benchmark.extra_info["journal_bytes"] = row["journal_bytes"]

    # Headline: same-turn coalescing needs >= 3x fewer store round trips
    # than one per operation (in practice it is close to the fan-in factor).
    assert row["store_operations"] >= 3 * row["store_round_trips"]
    assert row["largest_pipeline_batch"] > 1
