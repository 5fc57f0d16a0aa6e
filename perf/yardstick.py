"""A frozen reference load: how fast is this machine for this kind of code, now.

The box the benchmark runs on shares its cores and caches with neighbours,
and its speed for allocation-heavy interpreter code drifts by tens of percent
over minutes (README, "Steadiness"). An arithmetic loop does not feel that
drift; this file does, because it does in miniature what the runtime does --
a heap-ordered event loop stepping coroutines that allocate small records,
format ids, pack bytes, update dicts and append to bounded logs -- while
sharing no code with ``src/``. A run interleaves slices of this load with its
segments and reports its CPU-bound metrics at the yardstick's nominal speed.

**Never edit the load below**: every recorded baseline is expressed in it. A
change here is a new benchmark, to be re-baselined like one.
"""

from __future__ import annotations

import heapq
import struct
import time
from collections import deque
from typing import Any, Coroutine

__all__ = ["NOMINAL_US_PER_CALL", "Yardstick"]

#: What one yardstick call costs on the reference box in its quiet state.
#: Metrics are scaled to this speed; the choice of value only fixes the unit.
NOMINAL_US_PER_CALL = 8.0

_HEADER = struct.Struct("<IHd")


class _Record:
    __slots__ = ("rid", "step", "actor", "method", "args", "stamp")

    def __init__(self, rid: str, step: int, actor: tuple, method: str, args: tuple, stamp: float):
        self.rid = rid
        self.step = step
        self.actor = actor
        self.method = method
        self.args = args
        self.stamp = stamp


class _Future:
    __slots__ = ("done", "waiters")

    def __init__(self) -> None:
        self.done = False
        self.waiters: list[Any] = []

    def __await__(self):
        if not self.done:
            yield self


class _Loop:
    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.sequence = 0
        self.now = 0.0

    def at(self, delay: float, callback: Any, *args: Any) -> None:
        self.sequence += 1
        heapq.heappush(self.heap, (self.now + delay, self.sequence, callback, args))

    def sleep(self, delay: float) -> _Future:
        future = _Future()
        self.at(delay, self._resolve, future)
        return future

    def _resolve(self, future: _Future) -> None:
        future.done = True
        for coro in future.waiters:
            self.at(0.0, self._step, coro)
        future.waiters = []

    def _step(self, coro: Coroutine) -> None:
        try:
            future = coro.send(None)
        except StopIteration:
            return
        future.waiters.append(coro)

    def run(self) -> None:
        heap = self.heap
        pop = heapq.heappop
        while heap:
            when, _sequence, callback, args = pop(heap)
            self.now = when
            callback(*args)


class Yardstick:
    """Four callers, each making request/response calls through a mock
    broker and store; state persists across slices like a long-lived app."""

    CALLS_PER_SLICE = 3_000

    def __init__(self) -> None:
        self._partitions = {f"p{index}": deque(maxlen=2_000) for index in range(4)}
        self._state: dict[str, dict[str, Any]] = {}
        self._issued = 0

    def slice_us_per_call(self) -> float:
        """Run one slice; CPU µs per yardstick call."""
        loop = _Loop()
        partitions, state = self._partitions, self._state

        async def call(index: int) -> _Record:
            self._issued += 1
            rid = f"r{self._issued:06d}"
            actor = ("Echo", f"a{index % 64}")
            request = _Record(rid, 0, actor, "echo", ("x",), loop.now)
            await loop.sleep(0.001)
            partition = partitions[f"p{index % 4}"]
            partition.append(request)
            frame = bytearray(_HEADER.pack(index, len(rid), loop.now))
            frame += rid.encode()
            frame += request.method.encode()
            payload = bytes(frame)
            await loop.sleep(0.0005)
            key = f"state:{actor[0]}:{actor[1]}"
            held = state.get(key)
            state[key] = {
                "n": held["n"] + 1 if held else 1,
                "last": rid,
                "bytes": len(payload),
            }
            await loop.sleep(0.001)
            response = _Record(rid, 1, actor, "response", (payload[:8],), loop.now)
            partition.append(response)
            return response

        async def caller(calls: int) -> None:
            for index in range(calls):
                await call(index)

        start = time.process_time()
        for _ in range(4):
            loop.at(0.0, loop._step, caller(self.CALLS_PER_SLICE // 4))
        loop.run()
        return (time.process_time() - start) / self.CALLS_PER_SLICE * 1e6
