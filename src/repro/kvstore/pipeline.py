"""Pipelined store I/O: one round trip for a turn's worth of operations.

A :class:`PipelinedStoreClient` is the store connection every component
uses. It is a :class:`~repro.kvstore.store.StoreClient` (the
one-operation-per-round-trip reference the tests compare it against) that
overrides one method, ``_submit``: each operation is queued with its own
future and a flusher coalesces everything issued within the same event-loop
turn into a single backend round trip -- on SQLite one transaction, on the
memory backend one call run.

Semantics are those of the reference client:

- every operation still resolves (or fails) individually through its own
  future, so callers keep their sequential ``await`` style untouched;
- *dependent* operations never reorder: a caller only issues its next
  operation after the previous one resolved, which lands it in a later
  round trip by construction, and operations within one round trip apply
  in FIFO issue order inside a single kernel event -- CAS read-compare-
  write stays atomic exactly as before;
- fencing is still checked server-side per operation *when it lands*, so
  an operation issued before the fence but landing after it fails, and a
  fence mid-batch fails that operation and every later one in the batch
  while the earlier results stand (the lingering-client contract).

The win is round trips, the one cost simulated time can see: N independent
operations issued in one turn pay one store latency instead of N.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.kvstore.store import KVStore, StoreClient

if TYPE_CHECKING:
    from repro.sim import SimProcess

__all__ = ["PipelinedStoreClient"]

#: Upper bound on operations per pipelined store round trip.
STORE_BATCH_MAX = 64


class _PendingOp:
    """One queued operation and the future resolved when it lands."""

    __slots__ = ("apply", "args", "future")

    def __init__(self, apply: Callable[..., Any], args: tuple, future: Any):
        self.apply = apply
        self.args = args
        self.future = future


class PipelinedStoreClient(StoreClient):
    """A store connection that coalesces same-turn operations.

    Every ``Component`` builds one in ``start``. The flusher task runs on
    the owning component's failure domain, so a dead component's queued
    operations die with it -- just like its outbox.
    """

    def __init__(
        self,
        store: KVStore,
        client_id: str,
        process: "SimProcess | None" = None,
    ):
        super().__init__(store, client_id)
        self.process = process
        self._queue: list[_PendingOp] = []
        self._flusher_running = False
        # Evidence counters for the throughput benchmarks.
        self.batches_flushed = 0
        self.ops_pipelined = 0
        self.largest_batch = 0

    def _submit(self, apply: Callable[..., Any], *args: Any) -> Any:
        """Enqueue one operation; returns the future of its result."""
        future = self.store.kernel.create_future()
        self._queue.append(_PendingOp(apply, args, future))
        if not self._flusher_running:
            self._flusher_running = True
            self.store.kernel.spawn(
                self._flush(),
                self.process,
                name=f"store-pipeline:{self.client_id}",
            )
        return future

    async def _flush(self) -> None:
        """Drain the queue in FIFO batches, one round trip per batch.

        The zero-delay sleep runs after everything already scheduled at
        this instant, so operations issued anywhere in the current turn
        share the first batch without adding simulated latency.
        """
        try:
            await self.store.kernel.sleep(0.0)
            while self._queue:
                batch = self._queue[:STORE_BATCH_MAX]
                del self._queue[: len(batch)]
                await self.store.connection_round_trip(self.client_id)
                self._apply_batch(batch)
        finally:
            # Whatever ends this task, the next operation starts another.
            self._flusher_running = False

    def _apply_batch(self, batch: list[_PendingOp]) -> None:
        """Apply one batch inside a single kernel event.

        The backend brackets the batch (SQLite: one transaction); each
        operation still passes the server-side fence check and fails on its
        own. Futures resolve, in issue order, only once ``end_batch`` has
        returned: no caller is told of a write before the commit covering
        it. A bracket that raises fails every operation of the batch, and so
        does an operation whose error dooms it (``StoreBackend.op_failed``).
        """
        self.batches_flushed += 1
        self.ops_pipelined += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        backend = self.store.backend
        outcomes: list[tuple[Any, Exception | None]] = []
        try:
            backend.begin_batch()
            for op in batch:
                try:
                    self.store._check(self.client_id)
                    outcomes.append((op.apply(*op.args), None))
                except Exception as error:  # noqa: BLE001 - routed to caller
                    outcomes.append((None, error))
                    if backend.op_failed(error):
                        break
            backend.end_batch()
        except Exception as error:  # noqa: BLE001 - routed to every caller
            outcomes = [(None, error)] * len(batch)
        for op, (result, error) in zip(batch, outcomes):
            if op.future.done():
                continue
            if error is None:
                op.future.set_result(result)
            else:
                op.future.set_exception(error)
