"""The hop count of one actor call, pinned.

ROADMAP item 4 prices a call in hops: timers, task spawns, produce and fetch
round trips. This gate turns that price into numbers a "fewer hops" change
lowers on purpose and nothing else moves by accident. One serial ``Echo.echo``
on memory backends with ``KarConfig.fast_test()`` and tracing off costs

======================  =====  ==============================================
produce round trips       2    the request, the response
fetch round trips         2    one per delivered record (a parked consumer
                               pays nothing; see ``GroupMember.poll``)
``Kernel.schedule``       8    caller: hop + overhead (one sleep), produce;
                               callee: fetch, dispatch hop, reply hop,
                               produce; caller: fetch, reply hop. The two
                               zero ``send_linger`` sleeps are ready-queue
                               entries, not timers
spawned tasks             1    the executor (a sender carries its own batch;
                               see ``Router.send_durable``)
task resumes             14    one per timer above, the two lingers, the
                               executor's start, both consumers woken by an
                               append, the caller woken by its response
``SimFuture`` objects     4    the caller's pending call, the two consumers'
                               append waiters, the executor's completion (a
                               sleep makes none: its timer resumes the task)
kernel events            16    one per resume above, and a second ready-queue
                               pass for each of the two zero lingers
simulated seconds      0.0042  the sum of those sleeps
======================  =====  ==============================================

Heartbeats, watchdog, reminder and maintenance loops tick in the background;
their periods (0.1, 0.3, 0.5 s) all divide 1.5 s, so an idle 1.5 s window
holds exactly the background's share of a 1.5 s window with calls in it.
"""

from __future__ import annotations

import pytest

from repro.core import KarApplication, KarConfig, actor_proxy
from repro.sim import Kernel, SimFuture, SimTask

from helpers import Echo

CALLS = 200
WINDOW = 1.5  # a common multiple of every background period of fast_test()


class CountingKernel(Kernel):
    """Counts the two kernel entry points that make an event or a task."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.scheduled = 0
        self.spawned = 0

    def schedule(self, delay, callback, *args):
        self.scheduled += 1
        return super().schedule(delay, callback, *args)

    def spawn(self, coro, process=None, name="task"):
        self.spawned += 1
        return super().spawn(coro, process, name)


def test_one_echo_call_costs_eight_timers_fourteen_resumes_one_task(monkeypatch):
    resumes = 0
    resume = SimTask._on_future

    def counted_resume(task, future):
        nonlocal resumes
        resumes += 1
        resume(task, future)

    monkeypatch.setattr(SimTask, "_on_future", counted_resume)
    futures = 0
    init_future = SimFuture.__init__

    def counted_init(future, owner):
        nonlocal futures
        futures += 1
        init_future(future, owner)

    monkeypatch.setattr(SimFuture, "__init__", counted_init)
    kernel = CountingKernel(seed=16)
    app = KarApplication(kernel, KarConfig.fast_test())
    echo = app.register_actor(Echo)
    app.add_component("w1", (echo,))
    app.add_component("w2", (echo,))
    client = app.client()
    app.settle()
    app.trace.enabled = False

    async def caller(count):
        for index in range(count):
            ref = actor_proxy("Echo", f"e{index % 8}")
            assert await client.invoke(None, ref, "echo", ("x",)) == "x"

    def drive(count):
        kernel.run_until_complete(kernel.spawn(caller(count), client.process))

    def counts():
        # Every queued callback takes one sequence number and nothing on this
        # path cancels a timer, so numbers issued are kernel events run.
        return (kernel.scheduled, resumes, futures, kernel._sequence)

    def since(before):
        return tuple(now - then for now, then in zip(counts(), before))

    drive(16)  # activate the eight actors, fill the placement cache

    start = kernel.now
    produces, fetches = app.broker.produce_count, app.broker.consume_count
    records = app.broker.produce_record_count
    spawned, before_calls = kernel.spawned, counts()
    drive(CALLS)
    assert kernel.now - start == pytest.approx(CALLS * 0.0042, rel=1e-9)
    assert app.broker.produce_count - produces == 2 * CALLS
    assert app.broker.produce_record_count - records == 2 * CALLS
    assert app.broker.consume_count - fetches == 2 * CALLS
    assert kernel.spawned - spawned - 1 == CALLS  # minus the driver itself

    kernel.run(until=start + WINDOW)
    busy_window = since(before_calls)
    idle_windows = []
    for index in (2, 3):
        before = counts()
        kernel.run(until=start + index * WINDOW)
        idle_windows.append(since(before))
    # The background really is periodic in the window, and it is all that
    # runs when nobody calls: no fetch, no produce, no task.
    assert idle_windows[0] == idle_windows[1] > (0, 0, 0, 0)
    assert app.broker.consume_count - fetches == 2 * CALLS
    assert kernel.spawned - spawned - 1 == CALLS
    assert busy_window[0] - idle_windows[0][0] == 8 * CALLS
    # Minus the driver's start; its calls run in its own frame.
    assert busy_window[1] - idle_windows[0][1] - 1 == 14 * CALLS
    # Minus the driver's completion, and its start as an event.
    assert busy_window[2] - idle_windows[0][2] - 1 == 4 * CALLS
    assert busy_window[3] - idle_windows[0][3] - 1 == 16 * CALLS
    kernel.check_no_crashes()
