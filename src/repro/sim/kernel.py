"""Event loop with simulated time, futures, and fail-stop tasks.

The kernel is intentionally small: two event queues, a coroutine driver, and
a seeded random number generator. Determinism is a core requirement -- the
paper's 48-hour, 1,000-failure campaign is reproduced as a simulated-time
campaign, and reruns with the same seed must be bit-identical.

Every event carries a sequence number from one counter, and events execute
in ``(when, seq)`` order. Delayed events (:meth:`Kernel.schedule`, and a
non-zero ``sleep`` through it) sit in a binary heap keyed by exactly that
pair. Zero-delay events (:meth:`Kernel.call_soon`, ``sleep(0)``, future
callbacks, task starts) are always due at the current instant, so they skip
the heap: they queue in a FIFO ``deque``, which is in ``seq`` order because
it is filled in ``seq`` order. Time cannot advance while the deque holds
anything -- every heap entry is due at ``now`` or later -- so all its entries
share ``when == now`` and the merge rule is one comparison: the heap's head
runs first only when it is due now *and* its ``seq`` is lower than the deque
head's. That is the order a single heap would produce; the deque just
reaches it without a ``Timer`` allocation and two O(log n) sifts per wakeup.

A task is woken in one of three ways. A future it awaits resolves, which
queues its resume on the deque. It starts, the same way. Or it sleeps:
``await kernel.sleep(d)`` builds no future, it yields ``d`` to
:meth:`SimTask._on_future`, which schedules *the resume itself* as the timer's
callback -- one event where "a timer resolves a future, the future queues the
resume" is two. The sleep starts when it is awaited, like ``asyncio.sleep``;
one that is never awaited queues nothing.

Resuming inside the timer's event keeps the order of the two-event form. When
the clock reaches an instant the deque is empty, so every heap entry due then
is older than every deque entry made at that instant: the two-event form fires
all the due timers first and then runs the resumes they queued, in timer
order, and resuming inside each fire runs the same resumes in the same order
(what a resume queues lands behind every due timer either way). The orders
differ in one case: a plain ``schedule(d, callback)`` due at the same float
instant as a sleeper ran ahead of every sleeper woken at that instant, and
now runs at its own ``(when, seq)`` place among them.

``sleep(0)`` still takes two passes through the deque (one that queues the
resume, one that runs it). The router's ``SEND_LINGER`` window and the store
pipeline's window are zero sleeps, and what rides in a batch is whatever gets
queued during those two passes; one pass makes the batches smaller.
"""

from __future__ import annotations

import heapq
import inspect
import types
from collections import deque
from random import Random
from typing import Any, Awaitable, Callable, Coroutine, Generator, Iterable

__all__ = ["Kernel", "SimFuture", "SimTask", "TaskKilled", "Timer"]


class TaskKilled(Exception):
    """Raised by ``await task`` when the task's process failed abruptly."""


class SimFuture:
    """A single-assignment cell that tasks can await.

    Mirrors :class:`asyncio.Future` but is driven by the simulation kernel, so
    resolution order is deterministic.
    """

    __slots__ = ("_kernel", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> BaseException | None:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        return self._exception

    def set_result(self, value: Any) -> None:
        self._resolve(value, None)

    def set_exception(self, exception: BaseException) -> None:
        self._resolve(None, exception)

    def _resolve(self, value: Any, exception: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("future is already resolved")
        self._done = True
        self._result = value
        self._exception = exception
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            # ``call_soon(callback, self)`` for each, without the calls.
            kernel = self._kernel
            ready = kernel._ready
            sequence = kernel._sequence
            args = (self,)
            for callback in callbacks:
                sequence += 1
                ready.append((sequence, callback, args))
            kernel._sequence = sequence

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        if self._done:
            self._kernel.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self._done:
            yield self
        if not self._done:
            raise RuntimeError("task resumed before future resolved")
        if self._exception is not None:
            raise self._exception
        return self._result


class Timer:
    """Handle for a scheduled callback; ``cancel`` makes it a no-op."""

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float):
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimTask:
    """A coroutine driven by the kernel.

    Tasks are awaitable: ``await task`` yields the coroutine's return value or
    re-raises its exception. Killing a task (directly or by killing its
    process) abandons the coroutine *without* running cleanup handlers --
    modelling abrupt process termination.
    """

    __slots__ = ("kernel", "name", "process", "coro", "alive", "completion")

    def __init__(
        self,
        kernel: "Kernel",
        coro: Coroutine[Any, Any, Any],
        process: Any = None,
        name: str = "task",
    ):
        self.kernel = kernel
        self.name = name
        self.process = process
        self.coro = coro
        self.alive = True
        self.completion = SimFuture(kernel)

    def done(self) -> bool:
        return self.completion._done

    def kill(self) -> None:
        """Abandon the task abruptly (fail-stop)."""
        self.alive = False
        self._settle(None, TaskKilled(self.name))
        # A started coroutine is deliberately not closed: closing would run
        # ``finally`` blocks, which a crashed process never gets to do. One
        # that never started has none to run; closing it only silences
        # "coroutine was never awaited".
        if inspect.getcoroutinestate(self.coro) == inspect.CORO_CREATED:
            self.coro.close()

    def _settle(self, value: Any, exception: BaseException | None) -> None:
        """Resolve ``completion`` (once) and leave the owning process."""
        completion = self.completion
        if not completion._done:
            completion._resolve(value, exception)
            if self.process is not None:
                self.process.release(self)

    def _on_future(self, future: SimFuture) -> None:
        """Resume the coroutine with the outcome of the future it awaited,
        then arrange its next resume from what it yields: a future it waits
        on, or the delay of a :meth:`Kernel.sleep`."""
        if not self.alive or self.completion._done:
            return
        try:
            exception = future._exception
            if exception is None:
                yielded = self.coro.send(future._result)
            else:
                yielded = self.coro.throw(exception)
        except StopIteration as stop:
            self._settle(stop.value, None)
        except BaseException as error:  # noqa: BLE001 - task boundary
            self._settle(None, error)
            self.kernel._record_crash(self, error)
        else:
            # By exact type first: a sleep's float delay, then a future; only
            # anything else (an int delay, a subclass) pays for isinstance.
            kind = type(yielded)
            if kind is float or (
                kind is not SimFuture and isinstance(yielded, (float, int))
            ):
                kernel = self.kernel
                if yielded > 0:
                    # The timer's own event is the resume.
                    kernel.schedule(yielded, self._on_future, kernel._started)
                else:
                    # Two ready-queue passes (see the module docstring); the
                    # first is ``call_soon(call_soon, ...)`` without the call.
                    kernel._sequence = sequence = kernel._sequence + 1
                    kernel._ready.append(
                        (sequence, kernel.call_soon, (self._on_future, kernel._started))
                    )
            elif kind is SimFuture or isinstance(yielded, SimFuture):
                # ``SimFuture.__await__`` yields only an unresolved future.
                yielded._callbacks.append(self._on_future)
            else:
                raise TypeError(
                    f"task {self.name!r} awaited a non-sim awaitable: {yielded!r}"
                )

    def __await__(self) -> Generator[SimFuture, None, Any]:
        return self.completion.__await__()


#: The runaway guard: no run executes more events than this.
_MAX_EVENTS = 50_000_000
#: What a plain :meth:`Kernel.run` waits for: a future nothing resolves.
_NEVER = SimFuture(None)  # type: ignore[arg-type]


@types.coroutine
def _sleep(delay: float) -> Generator[float, None, None]:
    """Hand ``delay`` to the task driving this await (``SimTask._on_future``).

    :meth:`Kernel.sleep` without its argument check. The runtime's own
    sleeps await it directly: their delays are non-negative by construction
    (a latency's sample, or a store connection's free time minus ``now``),
    and the check would be one more Python call per hop.
    """
    yield delay


class Kernel:
    """Deterministic discrete-event scheduler with simulated time in seconds."""

    def __init__(self, seed: int = 0):
        #: Simulated seconds since the kernel was built.
        self.now = 0.0
        self._sequence = 0
        #: Delayed events, keyed ``(when, seq)``.
        self._heap: list[tuple[float, int, Timer, Callable[..., None], tuple]] = []
        #: Zero-delay events ``(seq, callback, args)``, all due at ``now``.
        self._ready: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._stop_requested = False
        self.rng = Random(seed)
        self.crashes: list[tuple[SimTask, BaseException]] = []
        # A task starts, and wakes from a sleep, the way it resumes from a
        # future -- by being sent ``None`` -- so ``spawn`` and a sleeper's
        # timer call ``task._on_future`` with this resolved future.
        self._started = SimFuture(self)
        self._started._done = True

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Timer:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        timer = Timer(self.now + delay)
        self._sequence = sequence = self._sequence + 1
        heapq.heappush(self._heap, (timer.when, sequence, timer, callback, args))
        return timer

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after everything
        already due (not cancellable: nothing ever cancelled one)."""
        self._sequence = sequence = self._sequence + 1
        self._ready.append((sequence, callback, args))

    def create_future(self) -> SimFuture:
        return SimFuture(self)

    def sleep(self, delay: float) -> Awaitable[None]:
        """Awaitable that resumes its task ``delay`` simulated seconds after
        it is awaited (like ``asyncio.sleep``, nothing is queued before)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return _sleep(delay)

    def spawn(
        self,
        coro: Coroutine[Any, Any, Any],
        process: Any = None,
        name: str = "task",
    ) -> SimTask:
        """Start driving a coroutine; returns the awaitable task handle."""
        task = SimTask(self, coro, process=process, name=name)
        if process is not None:
            if not process.alive:
                task.kill()
                return task
            process.adopt(task)
        self._sequence = sequence = self._sequence + 1
        self._ready.append((sequence, task._on_future, (self._started,)))
        return task

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = _MAX_EVENTS) -> None:
        """Process events in ``(when, seq)`` order.

        Stops when both queues drain, simulated time passes ``until``, a
        callback calls :meth:`stop`, or ``max_events`` events have run (a
        runaway guard for tests). An ``until`` in the past is a no-op: time
        never moves backwards.
        """
        if until is not None and until < self.now:
            return
        if self._loop(_NEVER, until, max_events) and until is not None:
            self.now = until

    def stop(self) -> None:
        """Make the :meth:`run` or :meth:`run_until_complete` in progress
        return after the current callback.

        ``now`` stays at that callback's event time and later events stay
        queued for the next run. Outside a run this is a no-op: every run
        starts with the request cleared.
        """
        self._stop_requested = True

    def run_until_complete(
        self, awaitable: SimTask | SimFuture, timeout: float | None = None
    ) -> Any:
        """Drive the loop until ``awaitable`` resolves; return its result.

        Raises :class:`TimeoutError` when ``timeout`` simulated seconds pass
        first, and :class:`RuntimeError` when the queues drain or a callback
        calls :meth:`stop` first.
        """
        future = awaitable.completion if isinstance(awaitable, SimTask) else awaitable
        deadline = None if timeout is None else self.now + timeout
        if self._loop(future, deadline, _MAX_EVENTS):
            if self._heap:
                raise TimeoutError(f"not complete after {timeout} simulated seconds")
            raise RuntimeError("event loop drained before completion")
        if not future._done:
            raise RuntimeError("kernel stopped before completion")
        return future.result()

    def _loop(self, future: SimFuture, until: float | None, max_events: int) -> bool:
        """The one event loop: run events in ``(when, seq)`` order until
        ``future`` resolves or a callback calls :meth:`stop` (False), or the
        next event is past ``until`` or none is left (True).

        Raises :class:`RuntimeError` once ``max_events`` events have run.
        """
        self._stop_requested = False
        heap, ready = self._heap, self._ready
        events = 0
        while True:
            if future._done:
                return False
            if ready:
                if heap and heap[0][0] <= self.now and heap[0][1] < ready[0][0]:
                    _when, _seq, timer, callback, args = heapq.heappop(heap)
                    if timer.cancelled:
                        continue
                else:
                    _seq, callback, args = ready.popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    return True
                when, _seq, timer, callback, args = heapq.heappop(heap)
                if timer.cancelled:
                    continue
                self.now = when
            else:
                return True
            callback(*args)
            if self._stop_requested:
                return False
            events += 1
            if events >= max_events:
                raise RuntimeError(f"kernel exceeded {max_events} events")

    def gather(self, awaitables: Iterable[SimTask | SimFuture]) -> SimFuture:
        """Future resolved with the list of results once all inputs resolve.

        The first exception (in input order at resolution time) is propagated.
        """
        futures = [
            item.completion if isinstance(item, SimTask) else item
            for item in awaitables
        ]
        combined = self.create_future()
        remaining = len(futures)
        if remaining == 0:
            combined.set_result([])
            return combined

        def on_done(_future: SimFuture) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and not combined.done():
                for future in futures:
                    error = future.exception()
                    if error is not None:
                        combined.set_exception(error)
                        return
                combined.set_result([future.result() for future in futures])

        for future in futures:
            future.add_done_callback(on_done)
        return combined

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _record_crash(self, task: SimTask, error: BaseException) -> None:
        self.crashes.append((task, error))

    def check_no_crashes(self) -> None:
        """Raise the first unhandled task exception, if any (test helper)."""
        if self.crashes:
            task, error = self.crashes[0]
            raise RuntimeError(f"task {task.name!r} crashed: {error!r}") from error
