"""Framing microbenchmark: encode + decode of journal-shaped traffic.

The workload is what a journal actually holds under load: ``Request``
envelopes (distinct calls plus recovery copies sharing an immutable core),
their ``Response`` records, and a sprinkle of state dictionaries.

The regression gate tracks the deterministic metrics (encoded bytes, live
allocation blocks) where runner noise cannot reach; the wall-clock
per-value time is printed for the eye only.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

from repro.bench import render_table
from repro.core.envelope import Request, Response
from repro.core.refs import ActorRef
from repro.persist.framing import FrameCache, dumps_frame, loads_frame

from _shared import FULL, emit, maybe_profile

REQUESTS = 400 if FULL else 120
REPEATS = 7  # best-of timing to shed scheduler noise
#: Ceilings per corpus value: half the bytes and all of the allocation
#: blocks that tagged JSON text needed for the same corpus (471 B and 14.2
#: blocks per value), which is what the frames were introduced to beat.
BYTES_PER_VALUE_CEILING = 235
ALLOC_BLOCKS_PER_VALUE_CEILING = 14


def build_corpus() -> list:
    """Request-heavy journal traffic under at-least-once delivery: every
    call envelope, a redelivered recovery copy of it (same immutable core,
    bumped retry header -- what the retry orchestrator re-appends), its
    response record, and a sprinkle of persisted state dictionaries."""
    corpus: list = []
    for i in range(REQUESTS):
        request = Request(
            request_id=f"r{i:06d}",
            step=i % 7,
            actor=ActorRef("Order", f"order-{i % 50}"),
            method="reserve_stock" if i % 2 else "charge_card",
            args=(f"sku-{i % 30}", i % 9, i * 0.25),
            return_address=f"r{i - 1:06d}" if i else None,
            reply_to=f"workers#{i % 4}",
            caller_actor=ActorRef("Cart", f"cart-{i % 20}"),
            caller_member=f"workers#{i % 4}",
            ancestors=(f"r{i // 2:06d}",),
        )
        corpus.append(request)
        corpus.append(
            dataclasses.replace(
                request, copy_epoch=1, attempts=1, attempt_log=(float(i),)
            )
        )
        if i % 3 == 0:  # a second redelivery for the unlucky third
            corpus.append(
                dataclasses.replace(
                    request,
                    copy_epoch=2,
                    attempts=2,
                    attempt_log=(float(i), float(i) + 1.0),
                )
            )
        corpus.append(Response(request_id=request.request_id, value=i * 0.25))
        if i % 5 == 0:
            corpus.append(
                {"total": i, "history": [i - 1, i], "flags": ("paid",)}
            )
    return corpus


def _encode_all(corpus, cache) -> list:
    return [dumps_frame(value, cache=cache) for value in corpus]


def _decode_all(frames) -> list:
    return [loads_frame(frame) for frame in frames]


def measure_codec() -> dict:
    corpus = build_corpus()
    best = float("inf")
    frames: list = []
    for _ in range(REPEATS):
        cache = FrameCache()  # fresh per repeat: no warm-start advantage
        start = time.perf_counter()
        frames = _encode_all(corpus, cache)
        decoded = _decode_all(frames)
        best = min(best, time.perf_counter() - start)
        assert decoded == corpus

    tracemalloc.start()
    cache = FrameCache()
    before = tracemalloc.take_snapshot()
    kept = _decode_all(_encode_all(corpus, cache))
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    blocks = sum(
        stat.count_diff
        for stat in after.compare_to(before, "filename")
        if stat.count_diff > 0
    )
    del kept

    return {
        "values": len(corpus),
        "best_seconds": best,
        "per_value_us": best / len(corpus) * 1e6,
        "bytes": sum(len(frame) for frame in frames),
        "alloc_blocks": blocks,
    }


def test_framing_bytes_and_allocations(benchmark):
    row = benchmark.pedantic(
        lambda: maybe_profile("codec_binary", measure_codec),
        rounds=1,
        iterations=1,
    )
    emit(
        "codec_microbench.txt",
        render_table(
            ["Values", "us/value", "Bytes", "Alloc blocks"],
            [(row["values"], round(row["per_value_us"], 2), row["bytes"],
              row["alloc_blocks"])],
            title=f"Encode+decode of {row['values']} journal values",
            digits=2,
        ),
    )
    benchmark.extra_info["binary_bytes"] = row["bytes"]
    benchmark.extra_info["alloc_blocks"] = row["alloc_blocks"]

    assert row["bytes"] < BYTES_PER_VALUE_CEILING * row["values"]
    assert row["alloc_blocks"] < ALLOC_BLOCKS_PER_VALUE_CEILING * row["values"]
