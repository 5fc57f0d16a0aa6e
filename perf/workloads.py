"""The four benchmark workloads, their inputs, drivers and checkers.

Every workload is a closed loop: a caller issues its next operation only
when the previous one has settled. A run measures for ``seconds`` of wall
time, cut into segments of a fixed operation count; every timed metric is
computed within each segment and read at the fast decile of the segments.
The first ``window_segments`` segments are the *count window*:
memory is sampled when it closes, and the traced run executes exactly that
window, so every count it reports repeats for the same seed however fast
the machine is.

Pinned on every run (see README): ``KarConfig.fast_test()``,
``app.trace.enabled = False`` in timed sections, and for the durable
workloads ``PersistenceConfig.sqlite(root)`` with its defaults (binary
codec, ``synchronous=NORMAL``, ``fsync_journal=False``).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.net import KarGateway
from repro.persist import PersistenceConfig
from repro.sim import Kernel

import isolated
from tracer import BACKEND_READS, ROOT, Seams, Tracer
from yardstick import NOMINAL_US_PER_CALL, Yardstick

OUT_DIR = Path(__file__).resolve().parent / "out"

#: End-to-end metrics (tracing off) and their units, in print order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "cpu_us_per_call": "us",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units, in print order. A metric
#: that is undefined on a workload (a per-cycle figure outside the crash
#: workload, a durable-bytes figure on memory backends) is reported as 0.
LAYER_UNITS = {
    "sim.kernel.events_per_call": "count",
    "sim.kernel.null_event_us": "us",
    "sim.kernel.sim_s_per_call": "s",
    "sim.trace.on_cost_us_per_call": "us",
    "sim.trace.events_per_call": "count",
    "core.self_us_per_call": "us",
    "core.router.batches_per_call": "count",
    "core.router.records_per_batch": "count",
    "core.overload.retries_per_call": "count",
    "core.overload.shed_per_call": "count",
    "core.reconciler.copies_per_cycle": "count",
    "mq.broker.produce_round_trips_per_call": "count",
    "mq.broker.records_per_call": "count",
    "mq.broker.produce_busy_us_per_call": "us",
    "mq.broker.fetch_busy_us_per_call": "us",
    "mq.log.append_busy_us_per_call": "us",
    "mq.log.bytes_per_record": "B",
    "mq.log.replay_ms_per_cycle": "ms",
    "mq.log.replayed_records_per_cycle": "count",
    "mq.log.rewrites": "count",
    "kvstore.store.round_trips_per_call": "count",
    "kvstore.store.ops_per_call": "count",
    "kvstore.pipeline.ops_per_batch": "count",
    "kvstore.backend.busy_us_per_call": "us",
    "kvstore.backend.commit_us_per_batch": "us",
    "kvstore.backend.read_busy_ms_per_cycle": "ms",
    "kvstore.backend.db_bytes_per_call": "B",
    "persist.framing.encode_us_per_call": "us",
    "persist.framing.decode_us_per_call": "us",
    "persist.framing.encoded_bytes_per_call": "B",
    "persist.framing.isolated_encode_mb_per_s": "MB/s",
    "persist.framing.isolated_decode_mb_per_s": "MB/s",
    "net.gateway.null_route_us": "us",
    "net.gateway.http_overhead_us_per_req": "us",
    "net.bridge.submit_to_settle_ms": "ms",
    "net.bridge.sim_s_per_req": "s",
    "net.bridge.idle_share": "ratio",
    "durable_bytes_per_call": "B",
}


# ----------------------------------------------------------------------
# actors
# ----------------------------------------------------------------------
class Echo(Actor):
    async def echo(self, ctx, value):
        return value


class Ledger(Actor):
    """The paper's read-then-tail-write: ``add`` reads, ``commit`` writes."""

    async def add(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, new_total):
        await ctx.state.set_multiple({"total": new_total, "last": new_total})
        return new_total


class Hit(Actor):
    """Per-key counter with a persisted write on every call."""

    async def hit(self, ctx):
        total = await ctx.state.get("n", 0) + 1
        await ctx.state.set("n", total)
        return total


HOPS = 4
TALLIES = 8


class Flow(Actor):
    async def start(self, ctx, wid, hops):
        target = actor_proxy("Tally", f"t{wid % TALLIES}")
        return ctx.tail_call(target, "add", wid, hops)


class Tally(Actor):
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


# ----------------------------------------------------------------------
# checkers (pure: the smoke test hands them doctored responses)
# ----------------------------------------------------------------------
def check_echo(sent: Any, returned: list[Any]) -> int:
    """Echo calls whose reply is not the argument."""
    return sum(1 for value in returned if value != sent)


def check_counter_sums(sent: dict[Any, int], got: dict[Any, list[int]]) -> int:
    """Keys whose serialized counter did not return exactly ``1..n``.

    ``sent[key]`` requests were issued; ``got[key]`` is ``[replies, sum of
    returned values]``. A lost reply changes the count, a call executed
    twice or never changes the sum from ``n(n+1)/2``.
    """
    wrong = 0
    for key, count in sent.items():
        replies, total = got.get(key, (0, 0))
        if replies != count or total != count * (count + 1) // 2:
            wrong += 1
    return wrong + sum(1 for key in got if key not in sent)


def tally(got: dict[Any, list[int]], key: Any, value: int) -> None:
    """Add one reply to ``got[key] = [replies, sum of returned values]``."""
    entry = got.get(key)
    if entry is None:
        got[key] = [1, value]
    else:
        entry[0] += 1
        entry[1] += value


def check_recovery(
    commit_total: int, expected_total: int, unsettled: int, in_flight: int
) -> int:
    """Hops committed more or less than once, plus calls left unsettled. A
    crash that interrupted nothing recovered nothing: every workflow fails."""
    if in_flight == 0:
        return expected_total
    return abs(commit_total - expected_total) + unsettled


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scale:
    """Operation counts of one workload (``FULL`` is frozen; ``SMOKE`` is
    the < 1 s variant the smoke test runs)."""

    #: Untimed calls before the timed section (``crash_recover_sqlite``:
    #: settled calls preloaded into the journal each cycle).
    warmup: int
    #: Operations per segment.
    segment_ops: int
    #: Segments in the count window.
    window_segments: int
    #: Set-ups timed per untraced run; ``setup_s`` reports their median.
    setup_repeats: int = 5
    #: Calls in each half of the traced run's trace-off/trace-on slice.
    slice_ops: int = 0
    #: Events of the isolated kernel driver.
    isolated_events: int = 200_000
    #: Requests of the isolated null-route driver.
    isolated_requests: int = 2_000
    #: ``crash_recover_sqlite``: workflows in flight at each crash; a segment
    #: is ``segment_ops / workflows`` crash-and-recover cycles.
    workflows: int = 0


FULL = {
    "echo_serial_mem": Scale(2_000, 2_500, 10, slice_ops=10_000),
    "ledger_fanin_sqlite": Scale(2_000, 2_048, 10, slice_ops=5_000),
    "gateway_http_2conn": Scale(200, 1_000, 3),
    "crash_recover_sqlite": Scale(500, 1_000, 2, workflows=100),
}
_SMOKE = dict(setup_repeats=2, isolated_events=2_000, isolated_requests=50)
SMOKE = {
    "echo_serial_mem": Scale(20, 60, 1, slice_ops=40, **_SMOKE),
    "ledger_fanin_sqlite": Scale(32, 64, 1, slice_ops=64, **_SMOKE),
    "gateway_http_2conn": Scale(8, 24, 1, **_SMOKE),
    "crash_recover_sqlite": Scale(20, 40, 1, workflows=40, **_SMOKE),
}


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Meter:
    """Segments, latency samples and the stop rule of one timed section.

    With ``yardstick`` set, one slice of the reference load runs at every
    segment boundary (outside every segment's clock), so the machine's speed
    is sampled across the whole run, as finely as the workload is.
    """

    def __init__(
        self,
        scale: Scale,
        seconds: float,
        stop_at_window: bool = False,
        yardstick: bool = False,
    ):
        self.segment_ops = scale.segment_ops
        self.window_segments = scale.window_segments
        self.seconds = seconds
        self.stop_at_window = stop_at_window
        self.yardstick = Yardstick() if yardstick else None
        #: CPU µs per yardstick call of each slice.
        self.yard_us: list[float] = []
        self.ops = 0
        #: ``(ops, wall seconds, cpu seconds, latency samples)`` per
        #: completed segment.
        self.segments: list[tuple[int, float, float, list[float]]] = []
        self.stopped = False
        self.window_rss_kb = 0
        #: Bumped by every yardstick slice: an operation that was in flight
        #: across one waited for it, so its latency is not a sample.
        self.generation = 0
        self._samples: list[float] = []
        self._segment_done = 0
        self._mark = (0.0, 0.0)
        self._deadline = 0.0

    @classmethod
    def exactly(cls, ops: int) -> "Meter":
        """A meter that stops after one segment of ``ops`` operations."""
        return cls(Scale(0, max(ops, 1), 1), seconds=0.0, stop_at_window=True)

    def start(self) -> None:
        self._mark = (time.perf_counter(), time.process_time())
        self._deadline = self._mark[0] + self.seconds

    def yard_slice(self) -> None:
        if self.yardstick is not None:
            self.yard_us.append(self.yardstick.slice_us_per_call())
            self.generation += 1

    def done(self, latency: float, generation: int = 0) -> None:
        """One operation, issued in ``generation``, settled after ``latency``
        seconds."""
        if generation == self.generation:
            self._samples.append(latency)
        self.ops += 1
        self._segment_done += 1
        if self._segment_done == self.segment_ops:
            mark = (time.perf_counter(), time.process_time())
            samples, self._samples, self._segment_done = self._samples, [], 0
            self.add_segment(
                self.segment_ops, mark[0] - self._mark[0], mark[1] - self._mark[1],
                samples,
            )
            self.yard_slice()
            self._mark = (time.perf_counter(), time.process_time())

    def add_segment(
        self, ops: int, wall: float, cpu: float, samples: list[float]
    ) -> None:
        self.segments.append((ops, wall, cpu, samples))
        if len(self.segments) == self.window_segments:
            self.window_rss_kb = peak_rss_kb()
            if self.stop_at_window:
                self.stopped = True
        if time.perf_counter() >= self._deadline:
            self.stopped = True

    @property
    def window_complete(self) -> bool:
        return len(self.segments) >= self.window_segments

    def measured(self) -> tuple[int, float, float]:
        """``(ops, wall, cpu)`` summed over the completed segments."""
        ops, wall, cpu, _samples = zip(*self.segments)
        return sum(ops), sum(wall), sum(cpu)

    def cpu_us_per_op(self) -> float:
        ops, _wall, cpu = self.measured()
        return cpu / ops * 1e6

    def latencies(self) -> list[float]:
        return [sample for segment in self.segments for sample in segment[3]]


@dataclass
class Result:
    """What one run of one workload reports."""

    attempted: int
    failed: int
    #: name -> (value, unit): every end-to-end metric (tracing off) or
    #: every per-layer metric (traced).
    metrics: dict[str, tuple[float, str]]
    #: Evidence printed beside the metrics: sample counts, segment spread,
    #: layer shares, the traced run's own cost.
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def contract_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


#: Interference on a shared box only ever slows a segment down, and it comes
#: in phases that outlast a segment. Each timed metric is therefore read at
#: the fast decile of its per-segment values (see README, "Steadiness").
FAST_DECILE = 0.10


def segment_stats(meter: Meter, tail_q: float) -> dict[str, list[float]]:
    """Each timed metric, computed within every segment on its own."""
    stats: dict[str, list[float]] = {
        "calls_per_s": [], "cpu_us_per_call": [], "call_p50_ms": [], "call_tail_ms": [],
    }
    for ops, wall, cpu, samples in meter.segments:
        ordered = sorted(samples)
        stats["calls_per_s"].append(ops / wall)
        stats["cpu_us_per_call"].append(cpu / ops * 1e6)
        stats["call_p50_ms"].append(percentile(ordered, 0.50) * 1e3)
        stats["call_tail_ms"].append(percentile(ordered, tail_q) * 1e3)
    return stats


def speed_factor(meter: Meter) -> float:
    """Nominal ÷ measured yardstick cost: below 1 when the machine is slow.

    Both sides are read in their quiet state, the fast decile: of the
    yardstick slices here, of the segments in :func:`end_to_end`.
    """
    if not meter.yard_us:
        return 1.0
    return NOMINAL_US_PER_CALL / percentile(sorted(meter.yard_us), FAST_DECILE)


def end_to_end(
    meter: Meter, setups: list[float], import_s: float, tail_q: float
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """The six end-to-end metrics, timed ones at the yardstick's nominal
    speed, and the evidence behind them for the ``info`` line.

    Set-up is what a user pays before the first timed operation: the imports
    (``import_s``, once a process) plus the median of the repeated set-ups.

    CPU time scales with machine speed; sleeping does not. Each wall-clock
    figure is therefore scaled by ``idle + busy × factor`` with the run's own
    busy share (~1 in process, ~0.4 behind the gateway's bridge naps).
    """
    per_segment = segment_stats(meter, tail_q)
    raw = {
        name: percentile(
            sorted(values),
            1.0 - FAST_DECILE if name == "calls_per_s" else FAST_DECILE,
        )
        for name, values in per_segment.items()
    }
    factor = speed_factor(meter)
    _ops, wall, cpu = meter.measured()
    busy = min(1.0, cpu / wall)
    wall_scale = (1.0 - busy) + busy * factor
    values = {
        "setup_s": (import_s + statistics.median(setups)) * factor,
        "calls_per_s": raw["calls_per_s"] / wall_scale,
        "cpu_us_per_call": raw["cpu_us_per_call"] * factor,
        "call_p50_ms": raw["call_p50_ms"] * wall_scale,
        "call_tail_ms": raw["call_tail_ms"] * wall_scale,
        "peak_rss_mb": (meter.window_rss_kb or peak_rss_kb()) / 1024,
    }
    samples = min(len(segment[3]) for segment in meter.segments)
    info = {
        "ops": meter.ops,
        "segments": len(meter.segments),
        "segment_ops": meter.segment_ops,
        "window_segments": meter.window_segments,
        "window_complete": meter.window_complete,
        "samples_per_segment": samples,
        "tail_percentile": tail_q,
        "samples_beyond_tail": samples - math.ceil(tail_q * samples),
        "end_rss_mb": peak_rss_kb() / 1024,
        "setup_samples": len(setups),
        "setup_median_s": statistics.median(setups),
        "yard_us_per_call": [round(value, 3) for value in meter.yard_us],
        "speed_factor": factor,
        "busy_share": busy,
        "per_segment": {
            name: [round(value, 4) for value in segment_values]
            for name, segment_values in per_segment.items()
        },
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, info


@contextmanager
def scratch_dir() -> Iterator[str]:
    """A directory for durable files, inside the checkout and removed after."""
    parent = OUT_DIR / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(dir=parent)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def durable_sizes(root: str | None, app_name: str) -> tuple[int, int]:
    """``(journal bytes, db + WAL bytes)`` of one application's files."""
    if root is None:
        return 0, 0

    def size(suffix: str) -> int:
        path = os.path.join(root, app_name + suffix)
        return os.path.getsize(path) if os.path.exists(path) else 0

    return size(".journal"), size(".store.sqlite3") + size(".store.sqlite3-wal")


def build_app(
    seed: int, name: str, actors: dict[str, type], components: int, root: str | None
) -> KarApplication:
    config = KarConfig.fast_test()
    if root is not None:
        config = config.with_overrides(persistence=PersistenceConfig.sqlite(root))
    app = KarApplication.fresh(Kernel(seed=seed), config, name=name)
    app.trace.enabled = False
    for actor_name, actor_class in actors.items():
        app.register_actor(actor_class, name=actor_name)
    for index in range(components):
        app.add_component(f"w{index}", tuple(actors))
    return app


def app_counts(app: KarApplication) -> Counter[str]:
    """The ``app.stats()`` counters the per-layer metrics are ratios of."""
    counts: Counter[str] = Counter()
    for family in ("transport", "store", "persistence"):
        counts.update(app.stats(family))
    overload = app.stats("overload")
    counts["retries_spent"] = overload.get("retries_spent", 0)
    counts["mailbox_sheds"] = overload.get("mailbox_sheds", 0)
    counts["sim_now"] = app.kernel.now
    return counts


def end_checks(app: KarApplication) -> int:
    """Calls left unsettled in the journals plus crashed simulation tasks."""
    return len(app.stats("calls")["unsettled"]) + len(app.kernel.crashes)


def layer_metrics(
    *,
    ops: int,
    wall: float,
    cpu: float,
    counts: Counter[str],
    tracer: Tracer,
    seams: Seams,
    scale: Scale,
    total_ops: int,
    journal_bytes: int = 0,
    journal_records: int = 0,
    db_bytes: int = 0,
    cycles: int = 0,
    extra: dict[str, float] | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the traced window's raw material.

    ``ops``/``wall``/``cpu`` and ``counts`` cover the window; ``total_ops``
    is everything the application ran and ``journal_records`` everything
    its journal holds (what the bytes on disk are divided by). All busy
    times are span *self* times.
    """
    null_event = isolated.null_event_us(scale.isolated_events)
    encode_mb, decode_mb = isolated.framing_throughput(seams.corpus)
    events = tracer.counters["sim.kernel.events"]
    commits = tracer.count("kvstore.backend.end_batch")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values.update(
        {
            "sim.kernel.events_per_call": ratio(events, ops),
            "sim.kernel.null_event_us": null_event,
            "sim.kernel.sim_s_per_call": ratio(counts["sim_now"], ops),
            "core.self_us_per_call": ratio(tracer.self_us(ROOT), ops)
            - ratio(events, ops) * null_event,
            "core.router.batches_per_call": ratio(counts["outbox_batches"], ops),
            "core.router.records_per_batch": ratio(
                counts["outbox_records"], counts["outbox_batches"]
            ),
            "core.overload.retries_per_call": ratio(counts["retries_spent"], ops),
            "core.overload.shed_per_call": ratio(counts["mailbox_sheds"], ops),
            "mq.broker.produce_round_trips_per_call": ratio(
                counts["produce_round_trips"], ops
            ),
            "mq.broker.records_per_call": ratio(counts["records_appended"], ops),
            "mq.broker.produce_busy_us_per_call": ratio(
                tracer.self_us("mq.broker.produce"), ops
            ),
            "mq.broker.fetch_busy_us_per_call": ratio(
                tracer.self_us("mq.broker.fetch"), ops
            ),
            "mq.log.append_busy_us_per_call": ratio(
                tracer.self_us("mq.log.append"), ops
            ),
            "mq.log.bytes_per_record": ratio(journal_bytes, journal_records),
            "mq.log.rewrites": float(counts["journal_rewrites"]),
            "kvstore.store.round_trips_per_call": ratio(
                counts["store_round_trips"], ops
            ),
            "kvstore.store.ops_per_call": ratio(counts["store_operations"], ops),
            "kvstore.pipeline.ops_per_batch": ratio(
                counts["pipeline_ops"], counts["pipeline_batches"]
            ),
            "kvstore.backend.busy_us_per_call": ratio(
                tracer.self_us("kvstore.backend."), ops
            ),
            "kvstore.backend.commit_us_per_batch": ratio(
                tracer.self_us("kvstore.backend.end_batch"), commits
            ),
            "kvstore.backend.db_bytes_per_call": ratio(db_bytes, total_ops),
            "persist.framing.encode_us_per_call": ratio(
                tracer.self_us("persist.framing.encode"), ops
            ),
            "persist.framing.decode_us_per_call": ratio(
                tracer.self_us("persist.framing.decode"), ops
            ),
            "persist.framing.encoded_bytes_per_call": ratio(
                tracer.counters["persist.framing.encoded_bytes"], ops
            ),
            "persist.framing.isolated_encode_mb_per_s": encode_mb,
            "persist.framing.isolated_decode_mb_per_s": decode_mb,
            "net.bridge.idle_share": 1.0 - ratio(cpu, wall),
            "durable_bytes_per_call": ratio(journal_bytes + db_bytes, total_ops),
        }
    )
    if cycles:
        reads = tuple(f"kvstore.backend.{method}" for method in BACKEND_READS)
        values.update(
            {
                "mq.log.replay_ms_per_cycle": tracer.self_us("mq.log.replay")
                / 1e3
                / cycles,
                "mq.log.replayed_records_per_cycle": counts["restored_records"]
                / cycles,
                "kvstore.backend.read_busy_ms_per_cycle": tracer.self_us(*reads)
                / 1e3
                / cycles,
            }
        )
    values.update(extra or {})
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def trace_info(
    workload: str, tracer: Tracer, ops: int, cpu: float, window_complete: bool
) -> dict[str, Any]:
    """Dump the spans and summarize the ledger: shares of the root span."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    tracer.dump(str(path))
    root = tracer.totals.get(ROOT, [0, 0, 0])
    return {
        "traced_ops": ops,
        "traced_cpu_us_per_call": cpu / ops * 1e6 if ops else 0.0,
        "window_complete": window_complete,
        "root_us_per_call": root[1] / 1e3 / ops if ops else 0.0,
        "shares_of_root": tracer.shares(),
        "spans_recorded": sum(total[0] for total in tracer.totals.values()),
        "trace_file": str(path.relative_to(OUT_DIR.parent.parent)),
    }


# ----------------------------------------------------------------------
# workloads 1 and 2: in-process callers on the simulation kernel
# ----------------------------------------------------------------------
class _Session:
    """One set-up of an in-process workload: app, client, inputs, replies."""

    def __init__(self, app: KarApplication, keys: Iterator[int], refs: list[Any]):
        self.app = app
        self.kernel = app.kernel
        self.client = app.client()
        self.keys = keys
        self.refs = refs
        self.sent: Counter[int] = Counter()
        self.got: dict[int, list[int]] = {}
        self.returned: list[Any] = []
        self.errors: list[str] = []


class InProcessCalls:
    """Closed-loop simulated callers invoking one actor method in process."""

    durable = False
    components = 2
    tail_q = 0.99

    def __init__(self, name: str, why: str, callers: int, actors: int):
        self.name = name
        self.why = why
        self.callers = callers
        self.actors = actors

    # -- what differs between echo and ledger --------------------------
    actor_name = ""
    actor_class: type = Actor
    method = ""
    args: tuple = ()

    def keys(self, seed: int) -> Iterator[int]:
        raise NotImplementedError

    def record(self, session: _Session, key: int, value: Any) -> None:
        raise NotImplementedError

    def mismatches(self, session: _Session) -> int:
        raise NotImplementedError

    # -- set-up, drive, tear-down --------------------------------------
    def setup(self, seed: int, scale: Scale, root: str | None) -> _Session:
        app = build_app(
            seed, self.name, {self.actor_name: self.actor_class},
            self.components, root,
        )
        refs = [
            actor_proxy(self.actor_name, f"a{index}") for index in range(self.actors)
        ]
        session = _Session(app, self.keys(seed), refs)
        app.settle()
        self.drive_exactly(session, scale.warmup)
        return session

    def drive(self, session: _Session, meter: Meter) -> None:
        client, refs = session.client, session.refs
        method, args = self.method, self.args
        clock = time.perf_counter

        async def caller() -> None:
            while not meter.stopped:
                key = next(session.keys)
                session.sent[key] += 1
                generation = meter.generation
                start = clock()
                try:
                    value = await client.invoke(None, refs[key], method, args, True)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    session.errors.append(repr(error))
                    meter.done(clock() - start, generation)
                    continue
                meter.done(clock() - start, generation)
                self.record(session, key, value)

        kernel = session.kernel
        tasks = [
            kernel.spawn(caller(), client.process, name=f"caller{index}")
            for index in range(self.callers)
        ]
        meter.start()
        kernel.run_until_complete(kernel.gather(tasks))

    def drive_exactly(self, session: _Session, ops: int) -> Meter:
        """Drive one segment of ``ops`` operations (plus the other callers'
        calls in flight when it closes)."""
        meter = Meter.exactly(ops)
        if ops:
            self.drive(session, meter)
        return meter

    def finish(self, session: _Session) -> tuple[int, int]:
        """``(attempted, failed)`` after the end-of-run checks."""
        failed = (
            len(session.errors) + self.mismatches(session) + end_checks(session.app)
        )
        session.app.shutdown()
        return sum(session.sent.values()), failed

    # -- runs ----------------------------------------------------------
    def run(
        self, seed: int, seconds: float, trace: bool, scale: dict[str, Scale],
        import_s: float = 0.0,
    ) -> Result:
        own = scale[self.name]
        with scratch_dir() as base:
            if trace:
                return self._run_traced(seed, seconds, own, base)
            return self._run_timed(seed, seconds, own, base, import_s)

    def _root(self, base: str, index: int) -> str | None:
        return os.path.join(base, f"s{index}") if self.durable else None

    def _run_timed(
        self, seed: int, seconds: float, scale: Scale, base: str, import_s: float
    ) -> Result:
        setups = []
        session = None
        for index in range(scale.setup_repeats):
            if session is not None:
                session.app.shutdown()
            start = time.perf_counter()
            session = self.setup(seed, scale, self._root(base, index))
            setups.append(time.perf_counter() - start)
        assert session is not None
        meter = Meter(scale, seconds, yardstick=True)
        self.drive(session, meter)
        attempted, failed = self.finish(session)
        metrics, info = end_to_end(meter, setups, import_s, self.tail_q)
        info["errors"] = session.errors[:3]
        return Result(attempted, failed, metrics, info)

    def _run_traced(self, seed: int, seconds: float, scale: Scale, base: str) -> Result:
        root = self._root(base, 0)
        session = self.setup(seed, scale, root)
        app = session.app

        # What the unbounded TraceRecorder costs, before any seam is wrapped.
        off = self.drive_exactly(session, scale.slice_ops)
        app.trace.enabled = True
        on = self.drive_exactly(session, scale.slice_ops)
        app.trace.enabled = False
        trace_events = len(app.trace)
        app.trace.events.clear()
        extra = {}
        if scale.slice_ops:
            extra = {
                "sim.trace.on_cost_us_per_call": on.cpu_us_per_op()
                - off.cpu_us_per_op(),
                "sim.trace.events_per_call": trace_events / on.ops,
            }

        tracer = Tracer()
        seams = Seams(tracer).install()
        meter = Meter(scale, seconds, stop_at_window=True)
        before = app_counts(app)
        try:
            with tracer.span(ROOT):
                self.drive(session, meter)
        finally:
            seams.remove()
        counts = app_counts(app)
        counts.subtract(before)
        ops, wall, cpu = meter.measured()
        journal_bytes, db_bytes = durable_sizes(root, self.name)
        journal_records = app.stats("persistence")["records_logged"]
        attempted, failed = self.finish(session)
        metrics = layer_metrics(
            ops=ops, wall=wall, cpu=cpu, counts=counts, tracer=tracer,
            seams=seams, scale=scale, total_ops=attempted,
            journal_bytes=journal_bytes, journal_records=journal_records,
            db_bytes=db_bytes, extra=extra,
        )
        info = trace_info(self.name, tracer, ops, cpu, meter.window_complete)
        info["errors"] = session.errors[:3]
        return Result(attempted, failed, metrics, info)


class EchoSerialMem(InProcessCalls):
    actor_name = "Echo"
    actor_class = Echo
    method = "echo"
    args = ("x",)

    def keys(self, seed: int) -> Iterator[int]:
        return itertools.cycle(range(self.actors))

    def record(self, session: _Session, key: int, value: Any) -> None:
        session.returned.append(value)

    def mismatches(self, session: _Session) -> int:
        return check_echo(self.args[0], session.returned)


class LedgerFaninSqlite(InProcessCalls):
    durable = True
    actor_name = "Ledger"
    actor_class = Ledger
    method = "add"
    args = (1,)

    def keys(self, seed: int) -> Iterator[int]:
        rng = random.Random(seed)
        actors = self.actors
        return iter(lambda: rng.randrange(actors), None)

    def record(self, session: _Session, key: int, value: Any) -> None:
        tally(session.got, key, value)

    def mismatches(self, session: _Session) -> int:
        return check_counter_sums(session.sent, session.got)


# ----------------------------------------------------------------------
# workload 3: real loopback socket -> KarGateway -> KernelBridge -> runtime
# ----------------------------------------------------------------------
class GatewayHttp2Conn:
    name = "gateway_http_2conn"
    connections = 2
    components = 4
    keyspace = 2_000
    zipf_s = 1.1
    tail_q = 0.99

    def __init__(self, why: str):
        self.why = why

    def keys(self, seed: int) -> Iterator[int]:
        rng = random.Random(seed)
        cumulative = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** self.zipf_s for rank in range(self.keyspace)
            )
        )
        population = range(self.keyspace)
        while True:
            yield from rng.choices(population, cum_weights=cumulative, k=4_096)

    def run(
        self, seed: int, seconds: float, trace: bool, scale: dict[str, Scale],
        import_s: float = 0.0,
    ) -> Result:
        own = scale[self.name]
        if trace:
            return asyncio.run(self._session(seed, seconds, own, [], 0.0, trace=True))
        setups: list[float] = []
        for _ in range(own.setup_repeats - 1):
            asyncio.run(self._session(seed, 0.0, own, setups, 0.0, timed=False))
        return asyncio.run(self._session(seed, seconds, own, setups, import_s))

    async def _session(
        self,
        seed: int,
        seconds: float,
        scale: Scale,
        setups: list[float],
        import_s: float,
        timed: bool = True,
        trace: bool = False,
    ) -> Result | None:
        """Set up (appending its wall time to ``setups``), measure unless
        ``timed`` is false, tear down."""
        start = time.perf_counter()
        app = build_app(seed, "edge", {"Hit": Hit}, self.components, None)
        app.settle()
        gateway = KarGateway(app, port=0, sync_timeout=120.0)
        host, port = await gateway.start()
        keys = self.keys(seed)
        sent: Counter[int] = Counter()
        got: dict[int, list[int]] = {}
        errors: list[str] = []
        clock = time.perf_counter

        async def lane(reader: Any, writer: Any, meter: Meter) -> None:
            while not meter.stopped:
                key = next(keys)
                sent[key] += 1
                head = (
                    f"POST /actor/Hit/k{key}/call/hit HTTP/1.1\r\n"
                    "Host: b\r\nContent-Length: 0\r\n\r\n"
                ).encode()
                generation = meter.generation
                begin = clock()
                status, body = await isolated.http_exchange(reader, writer, head)
                meter.done(clock() - begin, generation)
                if status != 200:
                    errors.append(f"{status} {body[:80]!r}")
                    continue
                tally(got, key, json.loads(body)["value"])

        async def drive(meter: Meter) -> None:
            meter.start()
            await asyncio.gather(*(lane(r, w, meter) for r, w in streams))

        streams = [
            await asyncio.open_connection(host, port)
            for _ in range(self.connections)
        ]
        result: Result | None = None
        try:
            await drive(Meter.exactly(scale.warmup))
            setups.append(time.perf_counter() - start)
            if trace:
                result = await self._traced(
                    app, gateway, drive, seconds, scale, host, port
                )
            elif timed:
                meter = Meter(scale, seconds, yardstick=True)
                await drive(meter)
                result = Result(
                    0, 0, *end_to_end(meter, setups, import_s, self.tail_q)
                )
        finally:
            # Close the client side first and wait for it: stopping the
            # gateway under an open connection logs CancelledError noise.
            for _reader, writer in streams:
                writer.close()
            for _reader, writer in streams:
                await writer.wait_closed()
            await gateway.stop()
            # The server's per-connection handlers are still unwinding; a
            # loop torn down under them logs their CancelledError.
            deadline = time.perf_counter() + 2.0
            while len(asyncio.all_tasks()) > 1 and time.perf_counter() < deadline:
                await asyncio.sleep(0.001)
        failed = len(errors) + check_counter_sums(sent, got) + end_checks(app)
        app.shutdown()
        if result is not None:
            result.attempted = sum(sent.values())
            result.failed = failed
            result.info["errors"] = errors[:3]
        elif failed:
            raise RuntimeError(f"{failed} failures during an untimed set-up")
        return result

    async def _traced(
        self, app: KarApplication, gateway: KarGateway, drive: Any,
        seconds: float, scale: Scale, host: str, port: int,
    ) -> Result:
        tracer = Tracer()
        seams = Seams(tracer).install(root_on_kernel_run=True)
        seams.watch_bridge(gateway.bridge)
        meter = Meter(scale, seconds, stop_at_window=True)
        before = app_counts(app)
        try:
            await drive(meter)
        finally:
            seams.remove()
        counts = app_counts(app)
        counts.subtract(before)
        ops, wall, cpu = meter.measured()
        settle_ms = statistics.median(seams.settle_ns) / 1e6
        client_ms = statistics.median(meter.latencies()) * 1e3
        extra = {
            "net.gateway.null_route_us": await isolated.null_route_us(
                host, port, scale.isolated_requests
            ),
            "net.gateway.http_overhead_us_per_req": (client_ms - settle_ms) * 1e3,
            "net.bridge.submit_to_settle_ms": settle_ms,
            "net.bridge.sim_s_per_req": counts["sim_now"] / ops,
        }
        metrics = layer_metrics(
            ops=ops, wall=wall, cpu=cpu, counts=counts, tracer=tracer,
            seams=seams, scale=scale, total_ops=ops, extra=extra,
        )
        info = trace_info(self.name, tracer, ops, cpu, meter.window_complete)
        return Result(0, 0, metrics, info)


# ----------------------------------------------------------------------
# workload 4: every process dies mid-workflow; recover from bytes
# ----------------------------------------------------------------------
class CrashRecoverSqlite:
    name = "crash_recover_sqlite"
    components = 2
    crash_at = 0.035  # simulated seconds of workflow progress before the crash
    preload_callers = 10
    # One latency sample a cycle and ten cycles a segment: p90 is the highest
    # percentile a segment's samples support.
    tail_q = 0.90

    def __init__(self, why: str):
        self.why = why

    def run(
        self, seed: int, seconds: float, trace: bool, scale: dict[str, Scale],
        import_s: float = 0.0,
    ) -> Result:
        own = scale[self.name]
        meter = Meter(
            own, seconds, stop_at_window=trace,
            yardstick=not trace,
        )
        tracer = Tracer() if trace else None
        seams = Seams(tracer) if tracer is not None else None
        preps: list[float] = []
        totals: Counter[str] = Counter()
        failed = 0
        with scratch_dir() as root:
            meter.start()
            cycle = 0
            wall = cpu = 0.0
            samples: list[float] = []
            while not meter.stopped:
                meter.yard_slice()
                outcome = self._cycle(seed, cycle, own, root, seams)
                cycle += 1
                preps.append(outcome["prep_s"])
                failed += outcome["failed"]
                totals.update(outcome["counts"])
                meter.ops += own.workflows
                wall += outcome["wall_s"]
                cpu += outcome["cpu_s"]
                samples.append(outcome["wall_s"])
                if len(samples) * own.workflows == own.segment_ops:
                    meter.add_segment(own.segment_ops, wall, cpu, samples)
                    wall = cpu = 0.0
                    samples = []
        attempted = cycle * own.workflows
        if tracer is None or seams is None:
            metrics, info = end_to_end(meter, preps, import_s, self.tail_q)
            info["cycles"] = cycle
            return Result(attempted, failed, metrics, info)
        ops, wall, cpu = meter.measured()
        metrics = layer_metrics(
            ops=ops, wall=wall, cpu=cpu, counts=totals, tracer=tracer,
            seams=seams, scale=own, total_ops=cycle * (own.warmup + own.workflows),
            journal_bytes=totals["journal_bytes"],
            journal_records=totals["records_logged"] + totals["restored_records"],
            db_bytes=totals["db_bytes"], cycles=cycle,
            extra={
                "core.reconciler.copies_per_cycle": totals["reconcile_copies"] / cycle
            },
        )
        info = trace_info(self.name, tracer, ops, cpu, meter.window_complete)
        info["cycles"] = cycle
        return Result(attempted, failed, metrics, info)

    def _deploy(self, app: KarApplication) -> Any:
        for index in range(self.components):
            app.add_component(f"w{index}", ("Flow", "Tally", "Ledger"))
        client = app.client()
        app.settle()
        return client

    def _cycle(
        self, seed: int, index: int, scale: Scale, root: str, seams: Seams | None
    ) -> dict[str, Any]:
        workflows = scale.workflows
        prep_start = time.perf_counter()
        app = build_app(
            seed * 1_000 + index, "crash",
            {"Flow": Flow, "Tally": Tally, "Ledger": Ledger}, 0, root,
        )
        kernel = app.kernel
        client = self._deploy(app)

        # A backlog of settled calls for the replay to read through.
        order = list(range(scale.warmup))
        random.Random(seed).shuffle(order)

        async def preload(keys: list[int]) -> None:
            for key in keys:
                ref = actor_proxy("Ledger", f"a{key}")
                await client.invoke(None, ref, "add", (1,), True)

        lanes = self.preload_callers
        kernel.run_until_complete(
            kernel.gather(
                kernel.spawn(preload(order[lane::lanes]), client.process)
                for lane in range(lanes)
            )
        )

        async def workflow(wid: int) -> None:
            ref = actor_proxy("Flow", f"f{wid}")
            await client.invoke(None, ref, "start", (wid, HOPS), True)

        for wid in range(workflows):
            kernel.spawn(workflow(wid), client.process, name=f"wf{wid}")
        kernel.run(until=kernel.now + self.crash_at)
        in_flight = len(app.stats("calls")["unsettled"])
        app.shutdown()  # every process dies, mid-workflow
        # A recovering process starts with an empty heap: collect the dead
        # applications of earlier cycles now, not inside the timed recovery.
        gc.collect()
        prep_s = time.perf_counter() - prep_start

        # Timed: reopen from the files, redeploy, settle every call.
        sim_start = kernel.now
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        if seams is not None:
            seams.install()
            seams.tracer.enter(ROOT)
        try:
            recovered = app.reopen()
            recovered.trace.enabled = seams is not None
            self._deploy(recovered)
            deadline = kernel.now + 600.0
            while recovered.stats("calls")["unsettled"] and kernel.now < deadline:
                kernel.run(until=kernel.now + 0.5)
        finally:
            if seams is not None:
                seams.tracer.exit()
                seams.remove()
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start

        counts = app_counts(recovered)
        counts["sim_now"] = kernel.now - sim_start
        counts["reconcile_copies"] = recovered.trace.count("reconcile.copy")
        recovered.trace.enabled = False
        counts["journal_bytes"], counts["db_bytes"] = durable_sizes(root, "crash")
        commit_total = sum(
            recovered.run_call(actor_proxy("Tally", f"t{tally}"), "report")
            for tally in range(TALLIES)
        )
        failed = check_recovery(
            commit_total, workflows * HOPS, end_checks(recovered), in_flight
        )
        recovered.shutdown()
        return {
            "prep_s": prep_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "counts": counts, "failed": failed,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        EchoSerialMem(
            "echo_serial_mem",
            "1 caller, memory backends: fixed per-call cost of sim+core+mq.broker "
            "with no batching, store, framing or socket; the control for "
            "kvstore/persist/net work",
            callers=1, actors=64,
        ),
        LedgerFaninSqlite(
            "ledger_fanin_sqlite",
            "32 callers, sqlite store + file journal, read-then-tail-write: the "
            "durable write path where pipeline and outbox batching, framing "
            "encode and journal append do the work",
            callers=32, actors=512,
        ),
        GatewayHttp2Conn(
            "real loopback HTTP, 2 keep-alive connections, zipf keys, memory "
            "backends: net (parser, bridge pump cadence) dominates and "
            "kvstore/persist do little",
        ),
        CrashRecoverSqlite(
            "all processes die mid-workflow, then reopen from files: journal "
            "replay, frame decode and reconciliation, the read direction of "
            "the layers ledger_fanin_sqlite writes through",
        ),
    )
}
