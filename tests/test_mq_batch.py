"""Batched produce: one round trip, per-partition guards, whole-batch fencing."""

import pytest

from repro.mq import Broker, BrokerConfig, FencedMemberError, StaleRouteError
from repro.mq.errors import MQError
from repro.sim import Kernel, Latency, SimProcess


def run(kernel, coro):
    return kernel.run_until_complete(kernel.spawn(coro))


@pytest.fixture
def kernel():
    return Kernel(seed=3)


@pytest.fixture
def broker(kernel):
    config = BrokerConfig(
        produce_latency=Latency.fixed(0.001),
        consume_latency=Latency.fixed(0.0005),
        retention_seconds=60.0,
    )
    return Broker(kernel, config)


# ---------------------------------------------------------------------------
# broker.produce_batch
# ---------------------------------------------------------------------------

def test_produce_batch_is_one_round_trip(kernel, broker):
    entries = [("p1", "a"), ("p2", "b"), ("p1", "c"), ("p3", "d")]

    async def scenario():
        return await broker.produce_batch("t", entries, "client")

    offsets = run(kernel, scenario())
    assert broker.produce_count == 1  # one round trip for four records
    assert broker.produce_record_count == 4
    # Per-partition append order follows entry order.
    assert offsets == [0, 0, 1, 0]
    topic = broker.topic("t")
    landed = {
        name: [(r.offset, r.value) for r in topic.partition(name).snapshot()]
        for name in ("p1", "p2", "p3")
    }
    assert landed == {"p1": [(0, "a"), (1, "c")], "p2": [(0, "b")], "p3": [(0, "d")]}
    # One produce latency was charged, not four.
    assert kernel.now == pytest.approx(0.001)


def test_produce_batch_charges_latency_before_appending(kernel, broker):
    async def scenario():
        (offset,) = await broker.produce_batch("t", [("p", "a")], "c")
        return broker.topic("t").partition("p").snapshot()[offset].timestamp

    assert run(kernel, scenario()) == pytest.approx(0.001)


def test_produce_batch_fenced_rejects_everything(kernel, broker):
    broker.fence("client")

    async def scenario():
        with pytest.raises(FencedMemberError):
            await broker.produce_batch("t", [("p1", "a"), ("p2", "b")], "client")

    run(kernel, scenario())
    assert broker.produce_record_count == 0
    assert len(broker.topic("t").partition("p1")) == 0
    assert len(broker.topic("t").partition("p2")) == 0


def test_produce_batch_fencing_lands_mid_batch(kernel, broker):
    """A fence that lands while the batch's produce round trip is in flight
    rejects the WHOLE batch at append time: nothing is appended."""

    async def fence_mid_flight():
        await kernel.sleep(0.0005)  # inside the 1 ms produce round trip
        broker.fence("client")

    async def scenario():
        kernel.spawn(fence_mid_flight())
        with pytest.raises(FencedMemberError):
            await broker.produce_batch(
                "t", [("p1", "a"), ("p2", "b"), ("p3", "c")], "client"
            )

    run(kernel, scenario())
    assert broker.produce_count == 0
    assert broker.produce_record_count == 0
    for partition in ("p1", "p2", "p3"):
        assert len(broker.topic("t").partition(partition)) == 0


def test_produce_batch_guard_rejects_only_its_partition(kernel, broker):
    """Per-partition guards: a stale destination fails its own entries with
    per-entry outcomes; the rest of the batch still lands atomically."""
    live = {"p1", "p3"}
    guards = {
        name: (lambda n=name: n in live) for name in ("p1", "p2", "p3")
    }

    async def scenario():
        return await broker.produce_batch(
            "t",
            [("p1", "a"), ("p2", "b"), ("p3", "c"), ("p2", "d")],
            "client",
            guards,
        )

    outcomes = run(kernel, scenario())
    assert isinstance(outcomes[0], int)
    assert isinstance(outcomes[1], MQError)
    assert isinstance(outcomes[2], int)
    assert isinstance(outcomes[3], MQError)
    assert broker.produce_count == 1
    assert broker.produce_record_count == 2
    assert len(broker.topic("t").partition("p2")) == 0


def test_produce_batch_evaluates_guard_once_per_partition(kernel, broker):
    calls = []

    def guard():
        calls.append(1)
        return True

    async def scenario():
        await broker.produce_batch(
            "t", [("p", "a"), ("p", "b"), ("p", "c")], "c", {"p": guard}
        )

    run(kernel, scenario())
    assert len(calls) == 1


def test_produce_batch_empty_is_free(kernel, broker):
    async def scenario():
        return await broker.produce_batch("t", [], "c")

    assert run(kernel, scenario()) == []
    assert kernel.now == 0.0
    assert broker.produce_count == 0


def test_produce_batch_wakes_append_waiters(kernel, broker):
    async def scenario():
        waiter = broker.wait_for_append("t", "p2")
        await broker.produce_batch("t", [("p1", "a"), ("p2", "b")], "c")
        await waiter  # resolved by the batch append
        return True

    assert run(kernel, scenario())


# ---------------------------------------------------------------------------
# group member.send_batch
# ---------------------------------------------------------------------------

def _group(kernel, broker):
    from repro.mq import GroupCoordinator

    group = GroupCoordinator(broker, "g", "t")
    group.on_generation(lambda info: group.resume(info.generation))
    members = {}
    for name in ("a", "b"):
        members[name] = group.join(name, SimProcess(name))
    kernel.run(until=kernel.now + 10.0)
    assert not group.paused
    return group, members


def test_send_batch_mixed_stale_destination(kernel, broker):
    group, members = _group(kernel, broker)

    async def scenario():
        return await members["a"].send_batch(
            [("b", "x"), ("ghost", "y"), ("b", "z")]
        )

    outcomes = run(kernel, scenario())
    assert isinstance(outcomes[0], int)
    assert isinstance(outcomes[1], StaleRouteError)
    assert isinstance(outcomes[2], int)
    assert [outcomes[0], outcomes[2]] == [0, 1]
    assert len(broker.topic("t").partition("ghost")) == 0


def test_send_batch_fenced_member_raises_whole_batch(kernel, broker):
    group, members = _group(kernel, broker)
    group.leave("a")
    kernel.run(until=kernel.now + 10.0)

    async def scenario():
        with pytest.raises(FencedMemberError):
            await members["a"].send_batch([("b", "x")])

    run(kernel, scenario())
    assert len(broker.topic("t").partition("b")) == 0
