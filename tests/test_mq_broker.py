"""Unit tests for partitions, topics, expiry, and producer fencing."""

import pytest

from repro.mq import Broker, BrokerConfig, FencedMemberError
from repro.sim import Kernel, Latency


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


def test_produce_assigns_increasing_offsets(kernel, broker):
    async def scenario():
        first = await broker.produce("t", "p", "a", "client")
        second = await broker.produce("t", "p", "b", "client")
        return first.offset, second.offset

    assert run(kernel, scenario()) == (0, 1)


def test_partitions_are_independent(kernel, broker):
    async def scenario():
        one = await broker.produce("t", "p1", "a", "c")
        two = await broker.produce("t", "p2", "b", "c")
        return one.offset, two.offset

    assert run(kernel, scenario()) == (0, 0)


def test_fetch_from_offset(kernel, broker):
    async def scenario():
        for value in ("a", "b", "c"):
            await broker.produce("t", "p", value, "c")
        records = await broker.fetch("t", "p", 1, "c")
        return [record.value for record in records]

    assert run(kernel, scenario()) == ["b", "c"]


def test_fetch_limit(kernel, broker):
    async def scenario():
        for value in range(5):
            await broker.produce("t", "p", value, "c")
        records = await broker.fetch("t", "p", 0, "c", limit=2)
        return [record.value for record in records]

    assert run(kernel, scenario()) == [0, 1]


def test_expiry_by_age(kernel, broker):
    async def scenario():
        await broker.produce("t", "p", "old", "c")
        await kernel.sleep(61.0)
        await broker.produce("t", "p", "new", "c")
        records = await broker.fetch("t", "p", 0, "c")
        return [record.value for record in records]

    assert run(kernel, scenario()) == ["new"]
    partition = broker.topic("t").partition("p")
    assert partition.first_retained_offset == 1


def test_fenced_producer_rejected(kernel, broker):
    async def scenario():
        await broker.produce("t", "p", "ok", "victim")
        broker.fence("victim")
        with pytest.raises(FencedMemberError):
            await broker.produce("t", "p", "stale", "victim")
        with pytest.raises(FencedMemberError):
            await broker.fetch("t", "p", 0, "victim")

    run(kernel, scenario())


def test_in_flight_produce_fenced(kernel, broker):
    """A produce issued before the fence but landing after must be refused
    (forceful disconnection extends to in-flight messages)."""

    async def lingering():
        with pytest.raises(FencedMemberError):
            await broker.produce("t", "p", "stale", "victim")

    task = kernel.spawn(lingering())
    broker.fence("victim")
    kernel.run_until_complete(task)
    partition = broker.topic("t").partition("p")
    assert len(partition) == 0


def test_snapshot_unexpired_across_partitions(kernel, broker):
    async def scenario():
        await broker.produce("t", "p1", "a", "c")
        await broker.produce("t", "p2", "b", "c")
        await broker.produce("t", "p1", "c", "c")

    run(kernel, scenario())
    snapshot = broker.topic("t").snapshot_unexpired(kernel.now)
    assert [record.value for record in snapshot] == ["a", "b", "c"]


def test_wait_for_append_wakes(kernel, broker):
    async def consumer():
        waiter = broker.wait_for_append("t", "p")
        await waiter
        records = await broker.fetch("t", "p", 0, "c")
        return records[0].value

    async def producer():
        await kernel.sleep(1.0)
        await broker.produce("t", "p", "hello", "c")

    consumer_task = kernel.spawn(consumer())
    kernel.spawn(producer())
    assert kernel.run_until_complete(consumer_task) == "hello"


def test_drop_partition(kernel, broker):
    async def scenario():
        await broker.produce("t", "dead", "x", "c")

    run(kernel, scenario())
    broker.topic("t").drop_partition("dead")
    assert "dead" not in broker.topic("t").partitions


def test_single_record_expiry_is_amortised_and_matches_a_naive_reference():
    """Past the retention mark every read expires about one record. Expiry
    must stay logical (a head index) and trim the one backing list only
    rarely, while every view equals plain slicing of the full history."""
    total, steps = 100_000, 50_000
    broker = Broker(Kernel(), BrokerConfig(retention_seconds=float(total)))
    partition = broker.topic("t").partition("p")
    history = [partition.append(index, float(index)) for index in range(total)]
    backing = broker.log.image("t", "p").records
    trims = 0
    for step in range(1, steps + 1):
        now = total + step - 0.5  # records stamped 0..step-1 are now expired
        size = len(backing._items)
        assert partition.read_from(step + 7, now, limit=3) == history[step + 7 : step + 10]
        assert partition.read_from(0, now, limit=2) == history[step : step + 2]
        assert partition.first_retained_offset == step
        assert len(partition) == total - step
        assert broker.log.compactions == step
        assert broker.log.retained_records() == total - step
        trims += len(backing._items) < size
        if step % 5_000 == 0:
            assert partition.unexpired(now) == history[step:]
            assert partition.snapshot() == history[step:]
            assert list(broker.log.replay()) == [("t", "p", step, total, history[step:])]
    assert trims <= 10
