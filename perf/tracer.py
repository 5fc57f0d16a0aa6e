"""Span accounting for the traced run, recorded from outside the program.

Nothing under ``src/`` knows about this file. The traced run replaces the
public functions at each layer seam with wrappers that push and pop a span
on one stack, so a span's *self* time is its duration minus the part its
child spans cover, and the self times of every span under a root add up to
that root's duration by construction. ``async`` seams are timed step by
step: a coroutine suspended on simulated I/O holds no span, so simulated
waiting never counts as busy time.

The recorder keeps per-name totals for the whole run (that is what the
per-layer metrics read) and the first ``keep`` raw spans as
``(name, start_ns, end_ns, parent)`` rows for ``perf/out/trace-*.json``.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

__all__ = ["ROOT", "Seams", "Tracer"]

#: The span every layer span hangs under: the benchmark's own call into the
#: kernel (``run_until_complete`` in process, ``Kernel.run`` under the bridge).
ROOT = "root"

#: Store-backend methods wrapped as ``kvstore.backend.<method>``.
BACKEND_METHODS = (
    "get", "set", "delete", "hget", "hset", "hset_many", "hget_many",
    "hgetall", "hdel", "delete_hash", "keys", "begin_batch", "end_batch",
    "flush",
)
#: The subset that only reads (``kvstore.backend.read_busy_ms_per_cycle``).
BACKEND_READS = ("get", "hget", "hget_many", "hgetall", "keys")


class Tracer:
    """In-memory span recorder with a stack for self time."""

    def __init__(self, keep: int = 20_000):
        #: name -> [span count, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        #: First ``keep`` spans: [name, start_ns, end_ns, parent index].
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self._keep = keep
        self._stack: list[list[Any]] = []

    def enter(self, name: str) -> None:
        index = -1
        if len(self.spans) < self._keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0, 0, parent])
        start = perf_counter_ns()
        if index >= 0:
            self.spans[index][1] = start
        self._stack.append([name, start, 0, index])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, index = self._stack.pop()
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_us(self, *prefixes: str) -> float:
        """Summed self time of every span whose name starts with a prefix."""
        return sum(
            total[2]
            for name, total in self.totals.items()
            if name.startswith(prefixes)
        ) / 1e3

    def count(self, name: str) -> int:
        total = self.totals.get(name)
        return 0 if total is None else total[0]

    def shares(self) -> dict[str, float]:
        """Self time of each span name as a share of the root's duration."""
        root = self.totals.get(ROOT)
        if root is None or root[1] == 0:
            return {}
        return {
            name: total[2] / root[1]
            for name, total in sorted(self.totals.items())
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "totals": self.totals,
                    "counters": dict(self.counters),
                },
                handle,
            )


class _SteppedCoro:
    """A coroutine whose every resume step runs inside one span."""

    __slots__ = ("_coro", "_tracer", "_name")

    def __init__(self, coro: Any, tracer: Tracer, name: str):
        self._coro = coro
        self._tracer = tracer
        self._name = name

    def __await__(self) -> "_SteppedCoro":
        return self

    __iter__ = __await__

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        self._tracer.enter(self._name)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.exit()

    def throw(self, *exc_info: Any) -> Any:
        self._tracer.enter(self._name)
        try:
            return self._coro.throw(*exc_info)
        finally:
            self._tracer.exit()

    def close(self) -> None:
        self._coro.close()


class Seams:
    """The wrappers at the repo's layer seams, installed and removed as one.

    Wrappers go on classes and on the ``framing`` module, not on instances,
    because ``crash_recover_sqlite`` builds its broker, journal and store
    inside ``app.reopen()`` where no instance exists yet to patch.
    """

    def __init__(self, tracer: Tracer, corpus_limit: int = 20_000):
        self.tracer = tracer
        #: ``(function name, value)`` of the first framing encodes seen: the
        #: corpus ``isolated.framing_throughput`` re-encodes.
        self.corpus: list[tuple[str, Any]] = []
        self._corpus_limit = corpus_limit
        #: Wall ns from ``KernelBridge.submit`` to its future resolving.
        self.settle_ns: list[int] = []
        self._undo: list[tuple[Any, str, bool, Any]] = []

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        owned = attr in vars(owner)
        self._undo.append((owner, attr, owned, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, owned, previous = self._undo.pop()
            if owned:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def _sync(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        enter, leave = self.tracer.enter, self.tracer.exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                observe(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def _async(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer

        def wrapper(*args: Any, **kwargs: Any) -> _SteppedCoro:
            return _SteppedCoro(original(*args, **kwargs), tracer, name)

        self._patch(owner, attr, wrapper)

    # -- the seams -----------------------------------------------------
    def install(self, root_on_kernel_run: bool = False) -> "Seams":
        """Wrap every seam. ``root_on_kernel_run`` makes ``Kernel.run`` the
        root span, for the gateway workload where the bridge pump, not the
        benchmark, calls into the kernel."""
        from repro.kvstore.backend import MemoryStoreBackend, SqliteStoreBackend
        from repro.mq.broker import Broker
        from repro.mq.log import FileJournalLog, MemoryBrokerLog
        from repro.persist import framing
        from repro.sim.kernel import Kernel

        counters = self.tracer.counters
        schedule = Kernel.schedule

        def counted_schedule(*args: Any) -> Any:
            counters["sim.kernel.events"] += 1
            return schedule(*args)

        self._patch(Kernel, "schedule", counted_schedule)
        if root_on_kernel_run:
            self._sync(Kernel, "run", ROOT)

        for attr in ("produce", "produce_batch", "produce_transaction"):
            self._async(Broker, attr, "mq.broker.produce")
        self._sync(Broker, "produce_internal_batch", "mq.broker.produce")
        self._async(Broker, "fetch", "mq.broker.fetch")
        for log_class in (MemoryBrokerLog, FileJournalLog):
            self._sync(log_class, "append_many", "mq.log.append")
        # A journal is read and decoded when it is opened; the broker then
        # adopts the image. Both halves are the replay.
        self._sync(FileJournalLog, "__init__", "mq.log.replay")
        self._sync(Broker, "restore_from_log", "mq.log.replay")

        for backend in (MemoryStoreBackend, SqliteStoreBackend):
            for method in BACKEND_METHODS:
                self._sync(backend, method, f"kvstore.backend.{method}")

        def encoded(function: str) -> Callable[[tuple, Any], None]:
            def observe(args: tuple, result: Any) -> None:
                counters["persist.framing.encoded_bytes"] += len(result)
                if len(self.corpus) < self._corpus_limit:
                    self.corpus.append((function, args[0]))

            return observe

        for function in ("dumps_frame", "encode_value"):
            self._sync(
                framing, function, "persist.framing.encode", encoded(function)
            )
        for function in ("loads_frame", "decode_value"):
            self._sync(framing, function, "persist.framing.decode")
        return self

    def watch_bridge(self, bridge: Any) -> None:
        """Time ``bridge.submit`` to the moment its future resolves."""
        original = bridge.submit
        settle_ns = self.settle_ns

        def submit(coro: Any, process: Any = None) -> Any:
            start = perf_counter_ns()
            future = original(coro, process=process)
            future.add_done_callback(
                lambda _future: settle_ns.append(perf_counter_ns() - start)
            )
            return future

        self._patch(bridge, "submit", submit)
