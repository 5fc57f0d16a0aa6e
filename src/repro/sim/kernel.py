"""Event loop with simulated time, futures, and fail-stop tasks.

The kernel is intentionally small: a binary heap of timestamped callbacks, a
coroutine driver, and a seeded random number generator. Determinism is a core
requirement -- the paper's 48-hour, 1,000-failure campaign is reproduced as a
simulated-time campaign, and reruns with the same seed must be bit-identical.
"""

from __future__ import annotations

import heapq
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
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._kernel.call_soon(callback, self)

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        if self._done:
            self._kernel.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Remove a pending callback; no-op if absent or already fired."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self._done:
            yield self
        if not self._done:
            raise RuntimeError("task resumed before future resolved")
        return self.result()


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
        return self.completion.done()

    def kill(self) -> None:
        """Abandon the task abruptly (fail-stop)."""
        if not self.alive or self.done():
            self.alive = False
            return
        self.alive = False
        if not self.completion.done():
            self.completion.set_exception(TaskKilled(self.name))
        # Deliberately do not close the coroutine: closing would run
        # ``finally`` blocks, which a crashed process never gets to do.

    def _step(self, value: Any = None, exception: BaseException | None = None) -> None:
        if not self.alive or self.done():
            return
        try:
            if exception is not None:
                yielded = self.coro.throw(exception)
            else:
                yielded = self.coro.send(value)
        except StopIteration as stop:
            if not self.completion.done():
                self.completion.set_result(stop.value)
        except BaseException as error:  # noqa: BLE001 - task boundary
            if not self.completion.done():
                self.completion.set_exception(error)
            self.kernel._record_crash(self, error)
        else:
            if not isinstance(yielded, SimFuture):
                raise TypeError(
                    f"task {self.name!r} awaited a non-sim awaitable: {yielded!r}"
                )
            yielded.add_done_callback(self._on_future)

    def _on_future(self, future: SimFuture) -> None:
        if not self.alive or self.done():
            return
        error = future.exception()
        if error is not None:
            self._step(exception=error)
        else:
            self._step(value=future.result())

    def __await__(self) -> Generator[SimFuture, None, Any]:
        return self.completion.__await__()


class Kernel:
    """Deterministic discrete-event scheduler with simulated time in seconds."""

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Timer, Callable[..., None], tuple]] = []
        self._stop_requested = False
        self.rng = Random(seed)
        self.crashes: list[tuple[SimTask, BaseException]] = []

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        timer = Timer(self._now + delay)
        self._sequence += 1
        heapq.heappush(self._heap, (timer.when, self._sequence, timer, callback, args))
        return timer

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        return self.schedule(0.0, callback, *args)

    def create_future(self) -> SimFuture:
        return SimFuture(self)

    def sleep(self, delay: float) -> SimFuture:
        """Awaitable resolved after ``delay`` simulated seconds."""
        future = self.create_future()
        self.schedule(delay, future.set_result, None)
        return future

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
                # Never started, so closing runs no ``finally`` (fail-stop
                # holds); it only silences "coroutine was never awaited".
                coro.close()
                return task
            process.adopt(task)
        self.call_soon(task._step)
        return task

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Process events in timestamp order.

        Stops when the heap drains, simulated time passes ``until``, a
        callback calls :meth:`stop`, or ``max_events`` events have run (a
        runaway guard for tests).
        """
        self._stop_requested = False
        events = 0
        while self._heap:
            when, _seq, timer, callback, args = self._heap[0]
            if until is not None and when > until:
                self._now = until
                return
            heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._now = when
            callback(*args)
            if self._stop_requested:
                return
            events += 1
            if events >= max_events:
                raise RuntimeError(f"kernel exceeded {max_events} events")
        if until is not None:
            self._now = max(self._now, until)

    def stop(self) -> None:
        """Make the :meth:`run` in progress return after the current callback.

        ``now`` stays at that callback's event time and later events stay
        queued for the next ``run``. Outside a ``run`` this is a no-op: every
        ``run`` starts with the request cleared.
        """
        self._stop_requested = True

    def run_until_complete(
        self, awaitable: SimTask | SimFuture, timeout: float | None = None
    ) -> Any:
        """Drive the loop until ``awaitable`` resolves; return its result."""
        future = awaitable.completion if isinstance(awaitable, SimTask) else awaitable
        deadline = None if timeout is None else self._now + timeout
        while not future.done():
            if not self._heap:
                raise RuntimeError("event loop drained before completion")
            if deadline is not None and self._heap[0][0] > deadline:
                raise TimeoutError(f"not complete after {timeout} simulated seconds")
            when, _seq, timer, callback, args = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._now = when
            callback(*args)
        return future.result()

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
