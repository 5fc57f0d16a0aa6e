"""Unit tests for the discrete-event simulation kernel."""

import inspect
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel, SimFuture, SimProcess, TaskKilled
from repro.sim import kernel as kernel_module


def test_time_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_schedule_runs_in_time_order():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, seen.append, "b")
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(3.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_same_time_events_run_in_schedule_order():
    kernel = Kernel()
    seen = []
    for label in ("first", "second", "third"):
        kernel.schedule(1.0, seen.append, label)
    kernel.run()
    assert seen == ["first", "second", "third"]


def test_run_until_stops_at_bound():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, seen.append, "early")
    kernel.schedule(5.0, seen.append, "late")
    kernel.run(until=2.0)
    assert seen == ["early"]
    assert kernel.now == 2.0
    kernel.run()
    assert seen == ["early", "late"]


def test_stop_ends_run_after_the_current_callback():
    kernel = Kernel()
    order = []

    def first():
        order.append("first")
        kernel.stop()

    kernel.schedule(1.0, first)
    kernel.schedule(1.0, order.append, "same-time")
    kernel.schedule(2.0, order.append, "later")
    kernel.run(until=10.0)
    # The run ended at the stopping event's time, not at ``until``, with
    # everything after that callback still queued...
    assert order == ["first"]
    assert kernel.now == 1.0
    # ...and the next run picks up exactly where this one left off.
    kernel.run(until=10.0)
    assert order == ["first", "same-time", "later"]
    assert kernel.now == 10.0


def test_stop_outside_a_run_does_not_cut_the_next_run_short():
    kernel = Kernel()
    order = []
    kernel.schedule(1.0, order.append, "a")
    kernel.schedule(2.0, order.append, "b")
    kernel.stop()
    kernel.run()
    assert order == ["a", "b"]


def test_timer_cancel():
    kernel = Kernel()
    seen = []
    timer = kernel.schedule(1.0, seen.append, "x")
    timer.cancel()
    kernel.run()
    assert seen == []


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule(-0.1, lambda: None)


def test_sleep_advances_time():
    kernel = Kernel()

    async def napper():
        await kernel.sleep(1.5)
        return kernel.now

    task = kernel.spawn(napper())
    assert kernel.run_until_complete(task) == 1.5


def test_task_return_value():
    kernel = Kernel()

    async def work():
        return 42

    assert kernel.run_until_complete(kernel.spawn(work())) == 42


def test_task_exception_propagates_to_awaiter():
    kernel = Kernel()

    async def boom():
        raise ValueError("broken")

    async def waiter():
        try:
            await kernel.spawn(boom())
        except ValueError as error:
            return str(error)
        return "no error"

    assert kernel.run_until_complete(kernel.spawn(waiter())) == "broken"


def test_unawaited_task_exception_recorded_as_crash():
    kernel = Kernel()

    async def boom():
        raise RuntimeError("lost")

    kernel.spawn(boom())
    kernel.run()
    assert len(kernel.crashes) == 1
    with pytest.raises(RuntimeError):
        kernel.check_no_crashes()


def test_future_resolution_wakes_task():
    kernel = Kernel()
    future = kernel.create_future()

    async def waiter():
        return await future

    task = kernel.spawn(waiter())
    kernel.schedule(3.0, future.set_result, "done")
    assert kernel.run_until_complete(task) == "done"
    assert kernel.now == 3.0


def test_future_double_resolution_rejected():
    kernel = Kernel()
    future = kernel.create_future()
    future.set_result(1)
    with pytest.raises(RuntimeError):
        future.set_result(2)


def test_future_exception_raises_in_awaiter():
    kernel = Kernel()
    future = kernel.create_future()

    async def waiter():
        with pytest.raises(KeyError):
            await future
        return "handled"

    task = kernel.spawn(waiter())
    kernel.call_soon(future.set_exception, KeyError("k"))
    assert kernel.run_until_complete(task) == "handled"


def test_gather_collects_in_order():
    kernel = Kernel()

    async def delayed(value, delay):
        await kernel.sleep(delay)
        return value

    tasks = [kernel.spawn(delayed(i, 3.0 - i)) for i in range(3)]
    result = kernel.run_until_complete(kernel.gather(tasks))
    assert result == [0, 1, 2]


def test_gather_empty():
    kernel = Kernel()
    assert kernel.run_until_complete(kernel.gather([])) == []


def test_process_kill_abandons_tasks():
    kernel = Kernel()
    process = SimProcess("victim")
    progress = []

    async def worker():
        progress.append("started")
        await kernel.sleep(10.0)
        progress.append("finished")

    kernel.spawn(worker(), process=process)
    kernel.run(until=1.0)
    assert progress == ["started"]
    process.kill()
    kernel.run()
    assert progress == ["started"]
    assert not process.alive


def test_killed_task_raises_in_awaiter():
    kernel = Kernel()
    process = SimProcess("victim")

    async def worker():
        await kernel.sleep(10.0)

    async def observer():
        task = kernel.spawn(worker(), process=process)
        kernel.schedule(1.0, process.kill)
        with pytest.raises(TaskKilled):
            await task
        return "observed"

    assert kernel.run_until_complete(kernel.spawn(observer())) == "observed"


def test_process_kill_settles_tasks_in_spawn_order():
    kernel = Kernel()
    process = SimProcess("victim")
    settled = []

    async def sleeper():
        await kernel.sleep(10.0)

    junk = []
    for index in range(40):
        # Scatter the tasks over the heap: their addresses must not matter.
        junk.append([None] * (index * 7 % 13))
        task = kernel.spawn(sleeper(), process=process)
        task.completion.add_done_callback(lambda _f, i=index: settled.append(i))
    kernel.run(until=1.0)
    process.kill()
    kernel.run(until=1.0)
    assert settled == list(range(40))


@pytest.mark.parametrize("through_process", [False, True])
def test_sleeper_killed_mid_sleep_is_not_resumed_by_its_timer(through_process):
    kernel = Kernel()
    process = SimProcess("victim")
    progress = []

    async def worker():
        try:
            progress.append("asleep")
            await kernel.sleep(2.0)
            progress.append("woke")
        finally:
            progress.append("finally")

    task = kernel.spawn(worker(), process=process)
    kernel.run(until=1.0)
    (process if through_process else task).kill()
    kernel.run(until=3.0)  # its timer fires at 2.0, into a dead task
    assert kernel.now == 3.0 and kernel._heap == []
    assert progress == ["asleep"]
    assert isinstance(task.completion.exception(), TaskKilled)
    assert process.task_count == 0
    assert kernel.crashes == []


def test_spawn_on_dead_process_is_killed_immediately():
    kernel = Kernel()
    process = SimProcess("gone")
    process.kill()

    async def worker():
        return 1

    task = kernel.spawn(worker(), process=process)
    kernel.run()
    assert task.done()
    assert isinstance(task.completion.exception(), TaskKilled)


def test_kill_hooks_run_once():
    kernel = Kernel()
    process = SimProcess("p")
    calls = []
    process.kill_hooks.append(lambda: calls.append("hook"))
    process.kill()
    process.kill()
    assert calls == ["hook"]


def test_determinism_same_seed_same_trace():
    def run(seed):
        kernel = Kernel(seed=seed)
        samples = []

        async def worker():
            for _ in range(5):
                delay = kernel.rng.uniform(0.1, 1.0)
                await kernel.sleep(delay)
                samples.append(round(kernel.now, 9))

        kernel.run_until_complete(kernel.spawn(worker()))
        return samples

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_run_until_complete_timeout():
    kernel = Kernel()
    future = kernel.create_future()
    kernel.schedule(100.0, future.set_result, None)
    with pytest.raises(TimeoutError):
        kernel.run_until_complete(future, timeout=1.0)


def test_event_loop_drained_error():
    kernel = Kernel()
    future = kernel.create_future()
    with pytest.raises(RuntimeError):
        kernel.run_until_complete(future)


def test_stop_ends_run_until_complete_and_leaves_later_events_queued():
    kernel = Kernel()
    seen = []
    future = kernel.create_future()

    def stopper():
        seen.append("stopper")
        kernel.stop()

    kernel.schedule(1.0, stopper)
    kernel.schedule(1.0, seen.append, "same-time")
    kernel.schedule(2.0, future.set_result, "done")
    with pytest.raises(RuntimeError, match="stopped before completion"):
        kernel.run_until_complete(future)
    assert seen == ["stopper"] and kernel.now == 1.0 and not future.done()
    assert kernel.run_until_complete(future) == "done"
    assert seen == ["stopper", "same-time"] and kernel.now == 2.0


def test_runaway_guard_trips_inside_run_until_complete(monkeypatch):
    monkeypatch.setattr(kernel_module, "_MAX_EVENTS", 100)
    kernel = Kernel()

    def again():
        kernel.call_soon(again)

    kernel.call_soon(again)
    with pytest.raises(RuntimeError, match="exceeded 100 events"):
        kernel.run_until_complete(kernel.create_future())


def test_kill_closes_a_coroutine_that_never_started_and_no_other():
    kernel = Kernel()
    progress = []

    async def worker():
        try:
            progress.append("started")
            await kernel.sleep(1.0)
        finally:
            progress.append("finally")

    started = kernel.spawn(worker())
    kernel.run(until=0.5)
    fresh = kernel.spawn(worker())
    started.kill()
    fresh.kill()
    # Closing the fresh one silences "never awaited" and runs nothing; the
    # started one is abandoned mid-flight, its ``finally`` never runs.
    assert inspect.getcoroutinestate(fresh.coro) == inspect.CORO_CLOSED
    assert inspect.getcoroutinestate(started.coro) == inspect.CORO_SUSPENDED
    assert progress == ["started"]


# ----------------------------------------------------------------------
# two queues, one order: delayed events sit in a heap, zero-delay events in
# a FIFO, and the merge must execute them exactly as one (when, seq) heap
# ----------------------------------------------------------------------
def test_timer_due_now_keeps_its_place_among_ready_events():
    kernel = Kernel()
    seen = []
    kernel.call_soon(seen.append, "soon-1")
    kernel.schedule(0.0, seen.append, "timer")
    kernel.call_soon(seen.append, "soon-2")
    kernel.run()
    assert seen == ["soon-1", "timer", "soon-2"]


def test_timers_already_due_run_before_events_they_cause():
    kernel = Kernel()
    seen = []

    def first():
        seen.append("first")
        kernel.call_soon(seen.append, "caused-by-first")

    kernel.schedule(1.0, first)
    kernel.schedule(1.0, seen.append, "second")
    kernel.run()
    assert seen == ["first", "second", "caused-by-first"]
    assert kernel.now == 1.0


def test_cancelled_timer_between_ready_events_consumes_no_event():
    kernel = Kernel()
    seen = []
    kernel.call_soon(seen.append, "a")
    kernel.schedule(0.0, seen.append, "cancelled").cancel()
    kernel.call_soon(seen.append, "b")
    kernel.run(max_events=3)  # would raise at 3: only two events run
    assert seen == ["a", "b"]


class HeapSleepKernel(Kernel):
    """The reference: every sleep, zero or not, is a heap timer that resolves
    a future, and the resolution queues the resume."""

    def sleep(self, delay):
        future = SimFuture(self)
        self.schedule(delay, future._resolve, None, None)
        return future


def event_trees(*kinds):
    """``(how it is launched, delay index, children)``; a node logs itself
    when it runs and then launches its children in order."""
    return st.recursive(
        st.tuples(st.sampled_from(kinds), st.integers(0, 2), st.just([])),
        lambda children: st.tuples(
            st.sampled_from(kinds),
            st.integers(0, 2),
            st.lists(children, max_size=4),
        ),
        max_leaves=30,
    )


def run_event_trees(kernel, trees):
    log = []

    def launch(node, path):
        how, delay_index, _children = node
        if how == "sleep0":
            kernel.spawn(sleeper(0, node, path))
        elif how == "sleep":  # the same few instants as "timer" below
            kernel.spawn(sleeper(0.001 * (delay_index + 1), node, path))
        elif how == "soon":
            kernel.call_soon(visit, node, path)
        elif how == "timer0":
            kernel.schedule(0.0, visit, node, path)
        else:  # a few coinciding instants, so timers come due together
            kernel.schedule(0.001 * (delay_index + 1), visit, node, path)

    async def sleeper(delay, node, path):
        await kernel.sleep(delay)
        visit(node, path)

    def visit(node, path):
        log.append((kernel.now, path))
        for index, child in enumerate(node[2]):
            launch(child, path + (index,))

    for index, tree in enumerate(trees):
        launch(tree, (index,))
    kernel.run()
    return log


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        event_trees("sleep0", "soon", "timer0", "timer"), min_size=1, max_size=4
    )
)
def test_zero_sleep_on_the_ready_queue_keeps_the_heap_order(trees):
    assert run_event_trees(Kernel(), trees) == run_event_trees(
        HeapSleepKernel(), trees
    )


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        event_trees("sleep0", "sleep", "soon", "timer0"), min_size=1, max_size=4
    )
)
def test_sleeper_resumed_inside_its_timer_keeps_the_two_event_order(trees):
    assert run_event_trees(Kernel(), trees) == run_event_trees(
        HeapSleepKernel(), trees
    )


def test_plain_timer_and_sleepers_due_together_run_in_scheduling_order():
    def run(kernel):
        seen = []

        async def sleeper(label):
            await kernel.sleep(1.0)
            seen.append(label)

        kernel.spawn(sleeper("sleeper-1"))
        kernel.call_soon(kernel.schedule, 1.0, seen.append, "timer")
        kernel.spawn(sleeper("sleeper-2"))
        kernel.run()
        assert kernel.now == 1.0
        return seen

    # Each runs at its own (when, seq) place...
    assert run(Kernel()) == ["sleeper-1", "timer", "sleeper-2"]
    # ...where two events a sleep put the callback ahead of every sleeper
    # woken at its instant: the one order this kernel does not share.
    assert run(HeapSleepKernel()) == ["timer", "sleeper-1", "sleeper-2"]


def test_sleep_starts_when_awaited_zero_is_not_a_timer_negative_raises_at_the_call():
    kernel = Kernel()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel.sleep(0)
        kernel.sleep(1.0)
    # Never awaited: nothing was queued and nothing warned.
    assert kernel._heap == [] and not kernel._ready and kernel._sequence == 0
    assert caught == []
    with pytest.raises(ValueError, match="negative delay"):
        kernel.sleep(-1)

    async def napper(delay):
        await kernel.sleep(delay)
        return kernel.now

    for zero in (0, 0.0):
        asleep = []
        task = kernel.spawn(napper(zero))
        # Runs right after the task's first step, while it sleeps.
        kernel.call_soon(
            lambda: asleep.append((list(kernel._heap), len(kernel._ready)))
        )
        assert kernel.run_until_complete(task) == 0.0
        assert asleep == [([], 1)]


def test_stop_leaves_ready_events_queued_for_the_next_run():
    kernel = Kernel()
    seen = []

    def stopper():
        seen.append("stopper")
        kernel.call_soon(seen.append, "after-stop")
        kernel.stop()

    kernel.call_soon(stopper)
    kernel.call_soon(seen.append, "queued")
    kernel.run(until=5.0)
    assert seen == ["stopper"]
    assert kernel.now == 0.0
    kernel.run(until=5.0)
    assert seen == ["stopper", "queued", "after-stop"]
    assert kernel.now == 5.0


def test_run_until_now_drains_ready_events_at_now():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, seen.append, "at-2")
    kernel.run(until=2.0)
    kernel.call_soon(seen.append, "soon")
    kernel.schedule(0.5, seen.append, "later")
    kernel.run(until=kernel.now)
    assert seen == ["at-2", "soon"]
    assert kernel.now == 2.0


def test_run_until_a_past_time_never_moves_time_backwards():
    kernel = Kernel()
    seen = []
    kernel.schedule(9.0, seen.append, "timer")
    kernel.run(until=5.0)
    kernel.call_soon(seen.append, "soon")
    kernel.run(until=1.0)
    assert kernel.now == 5.0
    assert seen == []
    kernel.run()
    assert seen == ["soon", "timer"]


def test_max_events_trips_on_ready_events():
    kernel = Kernel()

    def again():
        kernel.call_soon(again)

    kernel.call_soon(again)
    with pytest.raises(RuntimeError, match="exceeded 100 events"):
        kernel.run(max_events=100)


def test_completed_task_leaves_its_process_at_once():
    kernel = Kernel()
    process = SimProcess("p")
    later = []

    async def worker():
        kernel.stop()  # the run returns right after this task's only step

    task = kernel.spawn(worker(), process=process)
    kernel.call_soon(later.append, "not yet")
    assert process.task_count == 1
    kernel.run()
    assert task.done() and later == []
    assert process.task_count == 0
