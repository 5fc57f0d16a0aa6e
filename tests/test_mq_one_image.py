"""One image, one file, one ordering rule.

What a partition retains is held once, in the image the ``BrokerLog`` owns
(the broker's ``Partition`` objects store nothing); the log's metadata is
frames of the journal, not a sidecar; and every log mutation is journal
first, image second, so a refused write leaves nothing to undo.
"""

from __future__ import annotations

import errno
import gc
import os
import struct
import zlib
from collections import Counter

import pytest

from repro.core import KarApplication, KarConfig, actor_proxy
from repro.mq import (
    Broker,
    BrokerConfig,
    FileJournalLog,
    GroupCoordinator,
    MemoryBrokerLog,
)
from repro.mq.errors import StaleLeaseError
from repro.mq.log import JOURNAL_HEADER
from repro.mq.records import RetainedRecords
from repro.persist import CodecError, framing
from repro.sim import Kernel

from helpers import PersistentLatch, run


# ----------------------------------------------------------------------
# (a) one image
# ----------------------------------------------------------------------
def assert_partitions_are_the_logs_images(broker: Broker) -> dict:
    # Every RetainedRecords anywhere in the process: how many hold each
    # value in a column slot, and each column.
    alive = [c for c in gc.get_objects() if isinstance(c, RetainedRecords)]
    holders = Counter(id(value) for image in alive for value in image._values)
    columns = Counter(id(column) for i in alive for column in (i._stamps, i._values))
    images = {}
    for topic_name, topic in broker.topics.items():
        for name, partition in topic.partitions.items():
            image = broker.log.image(topic_name, name)
            assert partition._image is image
            assert partition.end_offset == image.next_offset
            assert partition.first_retained_offset == image.first_retained_offset
            assert columns[id(image._stamps)] == columns[id(image._values)] == 1
            for value in partition.snapshot().values:
                assert holders[id(value)] == 1
            images[(topic_name, name)] = image
    assert sorted(images) == broker.log.partitions()
    return images


def test_partitions_and_log_hold_the_same_image_across_a_memory_reopen():
    kernel = Kernel(seed=5)
    app = KarApplication(kernel, KarConfig.fast_test())
    app.register_actor(PersistentLatch)
    app.add_component("w1", ("PersistentLatch",))
    app.client()
    app.settle()
    latch = actor_proxy("PersistentLatch", "a")
    app.run_call(latch, "set", 7)
    before = assert_partitions_are_the_logs_images(app.broker)
    assert sum(len(image) for image in before.values()) > 0
    columns = {key: (image._stamps, image._values) for key, image in before.items()}

    app.shutdown()
    successor = app.reopen()
    successor.add_component("w1", ("PersistentLatch",))
    successor.client()
    successor.settle()
    assert successor.broker.log is app.broker.log
    assert successor.run_call(latch, "get") == 7
    after = assert_partitions_are_the_logs_images(successor.broker)
    # No copy on restart: the very same image objects and columns.
    for key, image in before.items():
        if key in after:
            assert after[key] is image
            assert image._stamps is columns[key][0]
            assert image._values is columns[key][1]
    assert set(before) & set(after)


# ----------------------------------------------------------------------
# failing logs
# ----------------------------------------------------------------------
class FailingHooks:
    """The ``fail_at``-th durability hook call raises ``ENOSPC`` before it
    writes anything."""

    fail_at = 0
    hook_calls = 0

    def fail_next(self) -> None:
        self.fail_at = self.hook_calls + 1

    def _tick(self) -> None:
        self.hook_calls += 1
        if self.hook_calls == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")

    def _persist_append(self, topic, runs):
        self._tick()
        super()._persist_append(topic, runs)

    def _persist_entry(self, entry):
        self._tick()
        super()._persist_entry(entry)


class FailingMemoryLog(FailingHooks, MemoryBrokerLog):
    pass


class FailingJournalLog(FailingHooks, FileJournalLog):
    pass


class Unencodable:
    def __reduce__(self):
        raise TypeError("nope")


def make_broker(log, **config) -> tuple[Kernel, Broker]:
    kernel = Kernel(seed=2)
    return kernel, Broker(kernel, BrokerConfig(**config), log=log)


def observed(broker: Broker) -> dict:
    """Everything a refused mutation must leave alone."""
    return {
        "image": list(broker.log.replay()),
        "meta": broker.log.meta_items(),
        "records_logged": broker.log.records_logged,
        "compactions": broker.log.compactions,
        "produce_record_count": broker.produce_record_count,
        "partitions": {
            (topic_name, name): (
                partition.snapshot(),
                partition.first_retained_offset,
                partition.end_offset,
            )
            for topic_name, topic in broker.topics.items()
            for name, partition in topic.partitions.items()
        },
        "leases": dict(broker._leases),
        "fenced": set(broker._fenced),
    }


def assert_reopened_journal_equals_the_image(broker: Broker) -> None:
    log = broker.log
    if not isinstance(log, FileJournalLog):
        return
    log.close()
    reopened = FileJournalLog(log.path)
    try:
        assert list(reopened.replay()) == list(log.replay())
        assert reopened.meta_items() == log.meta_items()
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# (b) a refused batch has nothing to undo
# ----------------------------------------------------------------------
async def send_single(broker, entries):
    ((partition, value),) = entries
    return [await broker.produce("t", partition, value, "prod")]


async def send_batch(broker, entries):
    return await broker.produce_batch("t", entries, "prod")


async def send_transaction(broker, entries):
    return await broker.produce_transaction("t", entries, "prod")


async def send_internal(broker, entries):
    return broker.produce_internal_batch("t", entries)


PRODUCE_PATHS = {
    "produce": send_single,
    "produce_batch": send_batch,
    "produce_transaction": send_transaction,
    "produce_internal_batch": send_internal,
}


@pytest.mark.parametrize("refusal", ["journal-unencodable", "memory-hook-raises"])
@pytest.mark.parametrize("path", PRODUCE_PATHS)
def test_refused_batch_leaves_nothing_behind(path, refusal, tmp_path):
    send = PRODUCE_PATHS[path]
    if refusal == "journal-unencodable":
        log = FileJournalLog(str(tmp_path / "app.journal"))
        poison, error = Unencodable(), CodecError
    else:
        log = FailingMemoryLog()
        poison, error = "fine, but the disk is full", OSError
    kernel, broker = make_broker(log)
    run(kernel, send_batch(broker, [("p1", "a"), ("p2", "b"), ("p1", "c")]))
    waiters = [broker.wait_for_append("t", name) for name in ("p1", "p2")]
    before = observed(broker)

    entries = [("p1", "d"), ("p2", poison), ("p1", "e")]
    if path == "produce":
        entries = entries[1:2]
    if refusal == "memory-hook-raises":
        log.fail_next()
    with pytest.raises(error):
        run(kernel, send(broker, entries))
    assert observed(broker) == before
    assert not any(waiter.done() for waiter in waiters)

    # The next append reuses the offsets and wakes the parked consumers.
    good = [(name, "good") for name, _value in entries]
    offsets = run(kernel, send(broker, good))
    expected = {"p1": 2, "p2": 1}
    for (name, _value), offset in zip(good, offsets, strict=True):
        assert offset == expected[name]
        expected[name] += 1
    kernel.run(until=kernel.now + 0.001)
    assert [waiter.done() for waiter in waiters] == [path != "produce", True]
    assert broker.produce_record_count == 3 + len(good)
    assert log.records_logged == 3 + len(good)
    assert_reopened_journal_equals_the_image(broker)
    log.close()


# ----------------------------------------------------------------------
# one ordering rule: journal first, image second
# ----------------------------------------------------------------------
def append(kernel, broker):
    broker.produce_internal_batch("t", [("p", "late"), ("q", "late")])


def compact(kernel, broker):
    assert broker.topic("t").partition("p").expire(kernel.now) == 2


def drop(kernel, broker):
    broker.topic("t").drop_partition("p")


def set_meta(kernel, broker):
    broker.log.set_meta("app:app:boot", 2)


def move_lease(kernel, broker):
    broker.acquire_partition_lease("t", "w", "w#2", 2)


def bump_generation(kernel, broker):
    group = GroupCoordinator(broker, "app", "t")
    try:
        assert group._bump_generation() == 1
    finally:  # refused or not, the counter is what the journal says
        journaled = broker.log.get_meta("group:app:generation")
        assert group.generation == (journaled or 0)


MUTATIONS = [append, compact, drop, set_meta, move_lease, bump_generation]


@pytest.mark.parametrize("flavor", ["memory", "journal"])
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_a_failing_hook_leaves_memory_where_the_file_is(mutate, flavor, tmp_path):
    if flavor == "memory":
        log = FailingMemoryLog()
    else:
        log = FailingJournalLog(str(tmp_path / "app.journal"))
    kernel, broker = make_broker(log, retention_seconds=10.0)
    broker.produce_internal_batch("t", [("p", "old-1"), ("p", "old-2")])
    log.set_meta("app:app:boot", 1)
    broker.acquire_partition_lease("t", "w", "w#1", 1)
    kernel.run(until=kernel.now + 60.0)
    broker.produce_internal_batch("t", [("p", "new"), ("q", "other")])
    before = observed(broker)

    log.fail_next()
    with pytest.raises(OSError, match="No space left"):
        mutate(kernel, broker)
    assert observed(broker) == before
    assert not broker.is_fenced("w#1")

    mutate(kernel, broker)  # the next call goes through
    assert observed(broker) != before
    if mutate is move_lease:
        assert broker.is_fenced("w#1")
        assert broker.partition_lease("t", "w") == ("w#2", 2)
        with pytest.raises(StaleLeaseError):
            broker.acquire_partition_lease("t", "w", "w#1", 1)
    assert_reopened_journal_equals_the_image(broker)
    log.close()


# ----------------------------------------------------------------------
# (c) metadata rides in the journal
# ----------------------------------------------------------------------
def frames(path) -> list[tuple]:
    """Every journal entry; a record as ``("r", partition id, offset, ts,
    value)`` from its binary head and its encoded value."""
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.startswith(JOURNAL_HEADER)
    entries, pos = [], 4
    while pos < len(data):
        size, crc = struct.unpack_from("<II", data, pos)
        assert zlib.crc32(data[pos + 8 : pos + 8 + size]) == crc
        if data[pos + 8] == ord("r"):
            kind, *head = struct.unpack_from("<BIqd", data, pos + 8)
            value, end = framing.decode_value(data, pos + 29)
            entry = (chr(kind), *head, value)
        else:
            entry, end = framing.decode_value(data, pos + 8)
        assert end == pos + 8 + size
        entries.append(entry)
        pos = end
    return entries


def test_metadata_round_trips_through_the_one_journal_file(tmp_path):
    path = str(tmp_path / "app.journal")
    log = FileJournalLog(path)
    log.set_meta("group:app:generation", 7)
    log.set_meta("lease:t:w", ["t", "w", "w#3", 3])
    log.set_meta("group:app:generation", 8)
    log.close()
    assert sorted(os.listdir(tmp_path)) == ["app.journal", "app.journal.lock"]
    log = FileJournalLog(path)
    assert log.meta_items() == {
        "group:app:generation": 8,
        "lease:t:w": ["t", "w", "w#3", 3],
    }
    assert log.get_meta("missing") is None
    log.close()


def test_rewrite_keeps_live_metadata_and_drops_superseded_frames(tmp_path):
    path = str(tmp_path / "app.journal")
    log = FileJournalLog(path)
    for generation in range(1, 6):
        log.set_meta("group:app:generation", generation)
    log.append_many("t", [("p", "v")], 0.0)
    log.set_meta("app:app:boot", 2)
    assert [entry[0] for entry in frames(path)] == list("mmmmmprm")
    log.rewrite()
    assert frames(path) == [
        ("m", "group:app:generation", 5),
        ("m", "app:app:boot", 2),
        ("p", "t", "p", 0),
        ("s", "t", "p", 0, 1),
        ("r", 0, 0, 0.0, "v"),
    ]
    log.set_meta("app:app:boot", 3)  # and the rewritten file still appends
    log.close()
    log = FileJournalLog(path)
    assert log.meta_items() == {"group:app:generation": 5, "app:app:boot": 3}
    assert log.retained_records() == 1
    log.close()


def test_torn_metadata_frame_is_truncated_and_the_previous_value_stands(tmp_path):
    path = str(tmp_path / "app.journal")
    log = FileJournalLog(path)
    log.set_meta("group:app:generation", 1)
    log.close()
    intact = os.path.getsize(path)
    frame = log._frame_bytes(("m", "group:app:generation", 2))
    for cut in range(1, len(frame)):
        with open(path, "ab") as handle:
            handle.write(frame[:cut])
        log = FileJournalLog(path)
        assert log.get_meta("group:app:generation") == 1
        log.close()
        assert os.path.getsize(path) == intact


@pytest.mark.parametrize("with_journal", [True, False], ids=["journal", "bare"])
def test_a_json_sidecar_is_refused_and_the_directory_untouched(tmp_path, with_journal):
    path = tmp_path / "app.journal"
    if with_journal:
        log = FileJournalLog(str(path))
        log.append_many("t", [("p", "v")], 0.0)
        log.close()
    (tmp_path / "app.journal.meta.json").write_bytes(b'{"app:app:boot":3}')
    before = {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=r"app\.journal\.meta\.json"):
        FileJournalLog(str(path))
    assert {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()} == before
    # Once the sidecar is gone the journal opens (the lock was never taken).
    (tmp_path / "app.journal.meta.json").unlink()
    log = FileJournalLog(str(path))
    assert log.retained_records() == int(with_journal)
    assert log.meta_items() == {}
    log.close()
