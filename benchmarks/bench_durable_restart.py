"""Cold crash-restart recovery over durable persistence backends.

The paper's Table 1 failure suite kills components inside a live process;
this benchmark exercises the recovery story the journals actually promise
(Section 4.3): *every* application process dies mid-workflow -- taking all
in-memory dedup evidence, placement caches, and pending futures with it --
and a brand-new application is rebuilt purely from the persistence layer.
With the SQLite store + file-journal broker log, that reconstruction crosses
a real serialization boundary (bytes on disk), exactly what a new OS process
would read after a crash.

Measured per backend: records replayed, values decoded, reconciliation
copies, recovery time (simulated seconds from reopen until every in-flight
call settled), and the exactly-once evidence -- per-actor commit totals must
equal the workflow count precisely, and the journal must retain completion
evidence for every request id it retains a request for.

Values decoded counts ``framing.decode_value`` calls from ``reopen()`` until
every call settled: a replayed record's value is decoded only when read,
and recovery reads at most one record per request that was unsettled at the
crash (its latest step), so the count is at most the in-flight count.
"""

from __future__ import annotations

import shutil
import tempfile

from repro.bench import render_table
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig, framing
from repro.sim import Kernel

from _shared import FULL, emit

WORKFLOWS = 400 if FULL else 40
HOPS = 4
TALLIES = 8
CRASH_AT = 0.035  # seconds of simulated time before the process dies


class Flow(Actor):
    async def start(self, ctx, wid, hops):
        target = actor_proxy("Tally", f"t{wid % TALLIES}")
        return ctx.tail_call(target, "add", wid, hops)


class Tally(Actor):
    """Exactly-once counting via the read-then-tail-write discipline."""

    async def add(self, ctx, wid, hops):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", wid, hops, total + 1)

    async def commit(self, ctx, wid, hops, new_total):
        await ctx.state.set_multiple({"total": new_total, f"done:{wid}": True})
        if hops > 1:
            return ctx.tail_call(
                actor_proxy("Flow", f"f{wid}"), "start", wid, hops - 1
            )
        return "done"

    async def report(self, ctx):
        return await ctx.state.get("total", 0)


def _deploy(app):
    app.register_actor(Flow)
    app.register_actor(Tally)
    app.add_component("w1", ("Flow", "Tally"))
    app.add_component("w2", ("Flow", "Tally"))
    app.client()
    app.settle()


def run_restart(mode: str) -> dict:
    root = tempfile.mkdtemp(prefix="repro-durable-")
    try:
        persistence = (
            PersistenceConfig(mode="sqlite", root=root)
            if mode == "sqlite"
            else PersistenceConfig()
        )
        config = KarConfig.fast_test().with_overrides(persistence=persistence)
        kernel = Kernel(seed=31)
        app = KarApplication.fresh(kernel, config, name="restart")
        _deploy(app)
        client = app.client()

        completed_before: list[int] = []

        async def drive(wid):
            ref = actor_proxy("Flow", f"f{wid}")
            await client.invoke(None, ref, "start", (wid, HOPS), True)
            completed_before.append(wid)

        for wid in range(WORKFLOWS):
            kernel.spawn(drive(wid), client.process, name=f"wf{wid}")
        kernel.run(until=kernel.now + CRASH_AT)

        in_flight = len(app.stats("calls")["unsettled"])
        app.shutdown()  # the whole process dies, mid-workflow

        decoded = 0
        decode_value = framing.decode_value

        def counted(data, pos=0):
            nonlocal decoded
            decoded += 1
            return decode_value(data, pos)

        framing.decode_value = counted
        try:
            app2 = app.reopen()
            reopen_at = kernel.now
            _deploy(app2)
            deadline = kernel.now + 600.0
            while app2.stats("calls")["unsettled"] and kernel.now < deadline:
                kernel.run(until=kernel.now + 0.5)
        finally:
            framing.decode_value = decode_value
        unsettled_after = len(app2.stats("calls")["unsettled"])
        recovery_seconds = kernel.now - reopen_at

        totals = [
            app2.run_call(actor_proxy("Tally", f"t{i}"), "report")
            for i in range(TALLIES)
        ]
        copies = app2.trace.count("reconcile.copy")
        journal_stats = app2.stats("persistence")
        kernel.check_no_crashes()
        app2.shutdown()  # release file handles before the tmp dir vanishes
        return {
            "mode": mode,
            "in_flight_at_crash": in_flight,
            "completed_before": len(completed_before),
            "replayed_records": app2.restored_records,
            "decoded_values": decoded,
            "reconcile_copies": copies,
            "recovery_seconds": recovery_seconds,
            "unsettled_after": unsettled_after,
            "commit_total": sum(totals),
            "expected_total": WORKFLOWS * HOPS,
            "journal": journal_stats,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure_all() -> list[dict]:
    return [run_restart("memory"), run_restart("sqlite")]


def test_cold_restart_settles_every_call_exactly_once(benchmark):
    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    emit(
        "durable_restart.txt",
        render_table(
            [
                "Backend",
                "In flight",
                "Replayed",
                "Decoded",
                "Copies",
                "Recovery (s)",
                "Unsettled",
                "Commits",
            ],
            [
                (
                    r["mode"],
                    r["in_flight_at_crash"],
                    r["replayed_records"],
                    r["decoded_values"],
                    r["reconcile_copies"],
                    round(r["recovery_seconds"], 2),
                    r["unsettled_after"],
                    f"{r['commit_total']}/{r['expected_total']}",
                )
                for r in rows
            ],
            title=(
                f"Cold crash-restart: {WORKFLOWS} workflows x {HOPS} hops, "
                f"process killed at t={CRASH_AT}s"
            ),
            digits=2,
        ),
    )

    for row in rows:
        # The crash genuinely interrupted work, and recovery replayed a
        # journal rather than an empty broker.
        assert row["in_flight_at_crash"] > 0
        assert row["replayed_records"] > 0
        # Acceptance: 100% of in-flight calls settle, and the dedup /
        # retention evidence shows exactly-once effects -- every workflow
        # hop committed exactly one increment.
        assert row["unsettled_after"] == 0
        assert row["commit_total"] == row["expected_total"]
        # Recovery reads only what it acts on: at most one value per
        # request id unsettled at the crash (none without a journal).
        assert row["decoded_values"] <= row["in_flight_at_crash"]

    sqlite_row = rows[1]
    benchmark.extra_info["sqlite_recovery_seconds"] = sqlite_row[
        "recovery_seconds"
    ]
    benchmark.extra_info["sqlite_replayed_records"] = sqlite_row[
        "replayed_records"
    ]
    benchmark.extra_info["sqlite_decoded_values"] = sqlite_row["decoded_values"]
