"""Single-layer drivers on a real clock (ROADMAP item 1a).

Each function times one layer with nothing else running, so a per-layer
number from the traced run has a floor to be read against. The traced run
calls the first three (kernel null event, framing throughput on the corpus
it captured, gateway null route); ``python3 perf/isolated.py`` prints all
five, the sqlite backend and journal-backed produce rows being
informational.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from typing import Any

__all__ = [
    "framing_throughput",
    "journal_produce_records_per_s",
    "null_event_us",
    "null_route_us",
    "sqlite_backend_ops_per_s",
]


def null_event_us(events: int = 200_000, chains: int = 64) -> float:
    """Wall µs per kernel event whose callback does nothing but reschedule.

    ``chains`` self-rescheduling no-op callbacks, half through
    ``call_soon`` and half after a simulated delay as ``sleep`` schedules
    them, keep the heap as shallow as it is under the workloads; one event
    is one ``schedule`` plus its pop and dispatch in ``Kernel.run``.
    """
    from repro.sim import Kernel

    kernel = Kernel(seed=0)
    remaining = events

    def soon() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            kernel.call_soon(soon)

    def later() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            kernel.schedule(0.001, later)

    for index in range(chains):
        kernel.call_soon(soon if index % 2 else later)
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    return elapsed / (events + chains - 1) * 1e6


def framing_throughput(corpus: list[tuple[str, Any]]) -> tuple[float, float]:
    """``(encode, decode)`` MB/s of the framing codec over ``corpus``.

    ``corpus`` holds ``(function name, value)`` pairs as the traced run
    captured them: ``dumps_frame`` values from the store backend and
    ``encode_value`` entries from the journal. Call with the seams removed.
    """
    from repro.persist import framing

    if not corpus:
        return 0.0, 0.0
    cache = framing.FrameCache()
    start = time.perf_counter()
    encoded = [
        framing.dumps_frame(value, cache=cache)
        if function == "dumps_frame"
        else framing.encode_value(value, cache)
        for function, value in corpus
    ]
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    for (function, _value), data in zip(corpus, encoded):
        if function == "dumps_frame":
            framing.loads_frame(data)
        else:
            framing.decode_value(data)
    decode_s = time.perf_counter() - start
    megabytes = sum(len(data) for data in encoded) / 1e6
    return megabytes / encode_s, megabytes / decode_s


async def http_exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, head: bytes
) -> tuple[int, bytes]:
    """One keep-alive request/response: ``(status, body)``."""
    writer.write(head)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    status = int(raw[9:12])
    marker = raw.lower().find(b"content-length:")
    length = 0
    if marker >= 0:
        length = int(raw[marker + 15 : raw.index(b"\r\n", marker)])
    return status, await reader.readexactly(length)


async def null_route_us(host: str, port: int, requests: int = 2_000) -> float:
    """p50 wall µs of ``GET /system/health`` on one keep-alive connection:
    parse, match and reply with no kernel round trip."""
    reader, writer = await asyncio.open_connection(host, port)
    head = b"GET /system/health HTTP/1.1\r\nHost: b\r\n\r\n"
    samples = []
    try:
        for _ in range(requests):
            start = time.perf_counter()
            status, _body = await http_exchange(reader, writer, head)
            samples.append(time.perf_counter() - start)
            if status != 200:
                raise RuntimeError(f"health route answered {status}")
    finally:
        writer.close()
        await writer.wait_closed()
    return statistics.median(samples) * 1e6


def sqlite_backend_ops_per_s(root: str, batches: int = 2_000) -> tuple[float, float]:
    """``(hset_many, hget_many)`` field operations per second on a WAL
    sqlite backend, 8 fields a batch, inside pipelined transactions of 16."""
    from repro.kvstore import SqliteStoreBackend

    backend = SqliteStoreBackend(os.path.join(root, "isolated.sqlite3"))
    fields = tuple(f"f{index}" for index in range(8))
    try:
        start = time.perf_counter()
        for index in range(batches):
            if index % 16 == 0:
                backend.begin_batch()
            backend.hset_many(f"k{index % 512}", dict.fromkeys(fields, index))
            if index % 16 == 15:
                backend.end_batch()
        write_s = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(batches):
            backend.hget_many(f"k{index % 512}", fields)
        read_s = time.perf_counter() - start
    finally:
        backend.close()
    operations = batches * len(fields)
    return operations / write_s, operations / read_s


def journal_produce_records_per_s(root: str, batches: int = 2_000) -> float:
    """Records per second through ``Broker.produce_batch`` (16 a batch) onto
    a ``FileJournalLog`` with the benchmark's flush policy."""
    from repro.mq import Broker, FileJournalLog
    from repro.sim import Kernel

    kernel = Kernel(seed=0)
    log = FileJournalLog(os.path.join(root, "isolated.journal"))
    broker = Broker(kernel, log=log)
    entries = [(f"p{index % 4}", {"n": index, "who": "isolated"}) for index in range(16)]

    async def produce() -> None:
        for _ in range(batches):
            await broker.produce_batch("t", entries, "isolated")

    try:
        start = time.perf_counter()
        kernel.run_until_complete(kernel.spawn(produce()))
        elapsed = time.perf_counter() - start
    finally:
        log.close()
    return batches * len(entries) / elapsed


async def _standalone_null_route_us() -> float:
    """The null route against a gateway over an idle one-component app."""
    from repro.core import KarApplication, KarConfig
    from repro.net import KarGateway
    from repro.sim import Kernel

    app = KarApplication(Kernel(seed=0), KarConfig.fast_test(), name="null")
    app.trace.enabled = False
    app.add_component("w0")
    app.settle()
    gateway = KarGateway(app, port=0)
    host, port = await gateway.start()
    try:
        return await null_route_us(host, port)
    finally:
        await gateway.stop()
        app.shutdown()


def main() -> int:
    """Print every isolated driver as a row."""
    import run

    run.use_repo_source()
    import workloads

    rows: list[tuple[str, float, str]] = [
        ("sim.kernel.null_event_us", null_event_us(), "us"),
    ]
    # The framing corpus is whatever the ledger workload's traced window
    # encodes; its result carries the two throughput rows.
    traced = workloads.WORKLOADS["ledger_fanin_sqlite"].run(
        seed=run.DEFAULT_SEED, seconds=60.0, trace=True, scale=workloads.FULL
    )
    for name in (
        "persist.framing.isolated_encode_mb_per_s",
        "persist.framing.isolated_decode_mb_per_s",
    ):
        rows.append((name, *traced.metrics[name]))
    with workloads.scratch_dir() as root:
        hset, hget = sqlite_backend_ops_per_s(root)
        rows.append(("kvstore.backend.isolated_hset_many_ops_per_s", hset, "1/s"))
        rows.append(("kvstore.backend.isolated_hget_many_ops_per_s", hget, "1/s"))
        rows.append(
            (
                "mq.broker.isolated_journal_records_per_s",
                journal_produce_records_per_s(root),
                "1/s",
            )
        )
    rows.append(
        ("net.gateway.null_route_us", asyncio.run(_standalone_null_route_us()), "us")
    )
    for name, value, unit in rows:
        print(f"{name:<48} {value:>14.3f} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
