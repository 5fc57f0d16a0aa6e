"""Unit tests for partitions, topics, expiry, and producer fencing."""

import gc
import os
import tracemalloc

import pytest

from repro.mq import Broker, BrokerConfig, FencedMemberError, Record
from repro.mq.broker import Partition
from repro.mq.log import FileJournalLog, MemoryBrokerLog
from repro.sim import Kernel, Latency

from helpers import append


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
        return first, second

    assert run(kernel, scenario()) == (0, 1)


def test_partitions_are_independent(kernel, broker):
    async def scenario():
        one = await broker.produce("t", "p1", "a", "c")
        two = await broker.produce("t", "p2", "b", "c")
        return one, two

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


def appended(partition, values, stamps) -> list[Record]:
    """Append each value at its stamp; the records they became."""
    return [
        Record(partition.name, append(partition, value, stamp), stamp, value)
        for value, stamp in zip(values, stamps)
    ]


def columns(run) -> tuple:
    """A run's partition, first offset, timestamps and values."""
    return run.partition, run.first_offset, list(run.timestamps), run.values


def test_single_record_expiry_is_amortised_and_matches_a_naive_reference():
    """Past the retention mark every read expires about one record. Expiry
    must stay logical (a head index) and trim the two columns only rarely,
    and together, while every view equals plain slicing of the full
    history."""
    total, steps = 100_000, 50_000
    broker = Broker(Kernel(), BrokerConfig(retention_seconds=float(total)))
    partition = broker.topic("t").partition("p")
    history = appended(partition, range(total), map(float, range(total)))
    assert [record.offset for record in history] == list(range(total))
    backing = broker.log.image("t", "p")
    trims = 0
    for step in range(1, steps + 1):
        now = total + step - 0.5  # records stamped 0..step-1 are now expired
        size = len(backing._values)
        assert partition.read_from(step + 7, now, limit=3) == history[step + 7 : step + 10]
        assert partition.read_from(0, now, limit=2) == history[step : step + 2]
        assert partition.first_retained_offset == step
        assert len(partition) == total - step
        assert broker.log.compactions == step
        assert broker.log.retained_records() == total - step
        assert len(backing._stamps) == len(backing._values)
        trims += len(backing._values) < size
        if step % 5_000 == 0:
            # Whole-partition reads, column by column: the same records as
            # ``history[step:]`` without building 95,000 of them.
            suffix = ("p", step, [float(i) for i in range(step, total)])
            suffix += (list(range(step, total)),)
            assert columns(partition.unexpired(now)) == suffix
            assert columns(partition.snapshot()) == suffix
            ((topic, name, first, end, run),) = broker.log.replay()
            assert (topic, name, first, end) == ("t", "p", step, total)
            assert columns(run) == suffix
    assert trims <= 10


def test_a_retained_record_costs_a_column_slot_not_an_object():
    """The image keeps a record as one slot of a timestamp array and one of
    a value list. With every record sharing one value object, the memory
    log retains at most 32 bytes a record (two 8-byte slots and the
    columns' growth slack), where a record object, its offset and its
    timestamp would cost about 128."""
    count = 20_000
    broker = Broker(Kernel())
    partition = broker.topic("t").partition("p")
    shared = ("one", "value")
    append(partition, shared, 0.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(count):
            append(partition, shared, float(index))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(partition) == count + 1
    assert retained / count <= 32, retained / count


@pytest.mark.parametrize("journal", [False, True], ids=["memory", "journal"])
def test_reads_expire_only_when_the_head_is_past_retention(
    journal, tmp_path, monkeypatch
):
    """A read inside the retention window neither scans for expired records
    nor compacts: ``compactions`` stays 0 and the journal does not grow by
    a byte. The first read after the head's timestamp plus retention
    compacts exactly the expired prefix, with one ``c`` frame."""
    path = str(tmp_path / "expiry.journal")
    log = FileJournalLog(path) if journal else MemoryBrokerLog()
    try:
        check_expiry_when_due(log, path if journal else None, monkeypatch)
    finally:
        log.close()


def check_expiry_when_due(log, path, monkeypatch):
    journal = path is not None
    kernel = Kernel()
    broker = Broker(kernel, BrokerConfig(retention_seconds=10.0), log=log)
    expiries = []
    expire = Partition.expire

    def counted(partition, now):
        expiries.append(now)
        return expire(partition, now)

    monkeypatch.setattr(Partition, "expire", counted)
    partition = broker.topic("t").partition("p")
    history = appended(partition, range(5), map(float, range(5)))
    size = os.path.getsize(path) if journal else 0

    async def fetch():
        return await broker.fetch("t", "p", 0, "c")

    # Up to and including head + retention (0.0 + 10.0): nothing is due.
    for step in range(1, 1_001):
        now = step / 100
        assert partition.read_from(0, now) == history
        assert partition.read_from(3, now, limit=1) == history[3:4]
    while kernel.now < 9.5:  # a fetch reads a consume latency later
        kernel.run(until=kernel.now + 0.25)
        assert kernel.run_until_complete(kernel.spawn(fetch())) == history
    assert expiries == []
    assert log.compactions == 0
    assert partition.first_retained_offset == 0
    if journal:
        assert os.path.getsize(path) == size

    # Records stamped 0, 1 and 2 are older than 12.5 - 10.
    assert partition.read_from(0, 12.5) == history[3:]
    assert expiries == [12.5]
    assert log.compactions == 1
    assert partition.first_retained_offset == 3
    assert partition.read_from(0, 12.75) == history[3:]
    assert expiries == [12.5]  # the new head (3.0) is not due yet
    if journal:
        log.flush()
        frame = FileJournalLog._frame_bytes(("c", "t", "p", 3))
        assert os.path.getsize(path) == size + len(frame)
        with open(path, "rb") as handle:
            assert handle.read()[size:] == frame


def test_a_dropped_partition_comes_back_fresh_under_its_name(kernel, broker):
    async def produce(value):
        return await broker.produce("t", "p", value, "c")

    assert [run(kernel, produce(v)) for v in "abc"] == [0, 1, 2]
    old = broker.topic("t").partition("p")
    broker.topic("t").drop_partition("p")
    assert broker.end_offset("t", "p") == 0
    assert run(kernel, produce("fresh")) == 0
    partition = broker.topic("t").partition("p")
    assert partition is not old
    assert broker.end_offset("t", "p") == 1
    fetched = run(kernel, broker.fetch("t", "p", 0, "c"))
    assert [(r.offset, r.value) for r in fetched] == [(0, "fresh")]


def test_restore_from_log_registers_every_replayed_partition(tmp_path):
    path = str(tmp_path / "restore.journal")
    kernel = Kernel()
    broker = Broker(kernel, log=FileJournalLog(path))
    names = [("t", "p1"), ("t", "p2"), ("u", "q")]

    async def scenario():
        for topic, partition in names:
            for value in range(3):
                await broker.produce(topic, partition, value, "c")

    run(kernel, scenario())
    broker.log.close()

    restored = Broker(Kernel(), log=FileJournalLog(path))
    assert restored.restore_from_log() == 9
    for topic, partition in names:
        # Read through the index alone: nothing has asked the topic yet.
        assert restored.end_offset(topic, partition) == 3
        fetched = run(restored.kernel, restored.fetch(topic, partition, 1, "c"))
        assert [record.value for record in fetched] == [1, 2]
        assert restored.topics[topic].partitions[partition].end_offset == 3
    restored.log.close()


def test_end_offset_of_an_unknown_partition_is_zero_and_creates_nothing(broker):
    assert broker.end_offset("t", "nobody") == 0
    assert broker.end_offset("nowhere", "nobody") == 0
    assert broker.topics == {}
    assert broker.log.partitions() == []
    broker.topic("t")
    assert broker.end_offset("t", "nobody") == 0
    assert broker.topic("t").partitions == {}
