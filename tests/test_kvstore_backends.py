"""Backend-conformance suite: the store/broker persistence contract.

Every test in this file runs identically against the in-memory backends and
the durable ones (SQLite store, file-journal broker log): CAS semantics,
batched hash writes, batched produce with per-entry guards, fencing,
retention expiry, offset-indexed replay, and journal compaction. The
durable backends additionally prove the *cold* half of the contract --
closing every handle and reconstructing from files yields the same state.
"""

from __future__ import annotations

import os
import random
import sqlite3
import struct

import pytest

from repro.kvstore import KVStore, MemoryStoreBackend, SqliteStoreBackend
from repro.kvstore.errors import FencedClientError
from repro.mq import (
    Broker,
    BrokerConfig,
    FencedMemberError,
    FileJournalLog,
    MemoryBrokerLog,
    MQError,
)
from repro.mq import log as mq_log
from repro.persist.framing import MAGIC
from repro.sim import Kernel, Latency

from helpers import run, unexpired_in_order

STORE_BACKENDS = ["memory", "sqlite"]
BROKER_LOGS = ["memory", "journal"]


# ---------------------------------------------------------------------------
# store backend harness
# ---------------------------------------------------------------------------
class StoreHarness:
    """Build, and later cold-reopen, one store backend flavor."""

    def __init__(self, flavor: str, tmp_path):
        self.flavor = flavor
        self.tmp_path = tmp_path

    def open(self):
        if self.flavor == "memory":
            self.backend = MemoryStoreBackend()
        else:
            self.backend = SqliteStoreBackend(
                str(self.tmp_path / "conformance.store.sqlite3")
            )
        return self.backend

    def reopen(self):
        """Simulate a restart: durable flavors drop every handle and
        reconstruct from files; memory survives as the same object."""
        if self.flavor == "memory":
            return self.backend
        self.backend.close()
        return self.open()

    def cleanup(self):
        if self.flavor != "memory" and getattr(self, "backend", None):
            self.backend.close()


@pytest.fixture(params=STORE_BACKENDS)
def store_harness(request, tmp_path):
    harness = StoreHarness(request.param, tmp_path)
    yield harness
    harness.cleanup()


def make_store(backend) -> tuple[Kernel, KVStore]:
    kernel = Kernel(seed=1)
    store = KVStore(kernel, Latency.fixed(0.0001), backend=backend)
    return kernel, store


def test_flat_keys_contract(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")

    async def scenario():
        await client.set("k1", {"nested": [1, 2, {"deep": "x"}]})
        await client.set("k2", ("tuple", 7))
        assert await client.get("k1") == {"nested": [1, 2, {"deep": "x"}]}
        assert await client.get("k2") == ("tuple", 7)
        assert await client.get("missing") is None
        assert await client.delete("k1") is True
        assert await client.delete("k1") is False
        return await client.get("k1")

    assert run(kernel, scenario()) is None
    assert store.keys() == ["k2"]


def test_cas_contract(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")

    async def scenario():
        # CAS from absent (expected None) wins exactly once.
        assert await client.cas("p", None, "w1") is True
        assert await client.cas("p", None, "w2") is False
        # CAS with the current value succeeds; stale expectations fail.
        assert await client.cas("p", "w1", "w3") is True
        assert await client.cas("p", "w1", "w4") is False
        return await client.get("p")

    assert run(kernel, scenario()) == "w3"


def test_cas_compares_by_value_across_reopen(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")
    run(kernel, client.set("p", {"component": "w1", "epoch": 3}))

    backend = store_harness.reopen()
    kernel2, store2 = make_store(backend)
    client2 = store2.client("c2")

    async def scenario():
        # The expected value is a fresh, structurally equal object: CAS
        # must compare decoded values, not object identity or encoding.
        return await client2.cas(
            "p", {"component": "w1", "epoch": 3}, {"component": "w2", "epoch": 4}
        )

    assert run(kernel2, scenario()) is True
    assert run(kernel2, client2.get("p")) == {"component": "w2", "epoch": 4}


def test_hash_contract(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")

    async def scenario():
        await client.hset("h", "a", 1)
        await client.hset_many("h", {"b": 2, "c": {"x": (1, 2)}})
        assert await client.hget("h", "a") == 1
        assert await client.hget("h", "missing") is None
        many = await client.hget_many("h", ("a", "b", "zzz"))
        assert many == {"a": 1, "b": 2, "zzz": None}
        assert await client.hgetall("h") == {"a": 1, "b": 2, "c": {"x": (1, 2)}}
        assert await client.hdel("h", "a") is True
        assert await client.hdel("h", "a") is False
        assert await client.delete_hash("h") is True
        assert await client.delete_hash("h") is False
        return await client.hgetall("h")

    assert run(kernel, scenario()) == {}


def test_keys_prefix_contract(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")

    async def scenario():
        for key in ("placement:A:1", "placement:A:2", "state:A:1"):
            await client.set(key, key)

    run(kernel, scenario())
    assert store.keys("placement:") == ["placement:A:1", "placement:A:2"]
    assert store.keys() == ["placement:A:1", "placement:A:2", "state:A:1"]


def test_fencing_contract(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")
    run(kernel, client.set("k", 1))
    store.fence("c1")
    with pytest.raises(FencedClientError):
        run(kernel, client.set("k", 2))
    with pytest.raises(FencedClientError):
        run(kernel, client.get("k"))
    # Fencing is service state, not backend state: another identity reads
    # the value the fenced client managed to write before the fence.
    assert run(kernel, store.client("c2").get("k")) == 1


def test_store_survives_reopen(store_harness):
    kernel, store = make_store(store_harness.open())
    client = store.client("c1")

    async def scenario():
        await client.set("placement:A:1", "w1")
        await client.hset_many("state:A:1", {"balance": 42, "log": [1, 2]})

    run(kernel, scenario())

    backend = store_harness.reopen()
    kernel2, store2 = make_store(backend)
    client2 = store2.client("c9")

    async def verify():
        assert await client2.get("placement:A:1") == "w1"
        assert await client2.hgetall("state:A:1") == {
            "balance": 42,
            "log": [1, 2],
        }

    run(kernel2, verify())


@pytest.mark.parametrize("size", [8, 16 * 1024, 1024 * 1024])
def test_overwrite_contract(store_harness, size):
    """Fresh insert, overwrite (small -> large -> small), delete + reinsert:
    every write primitive leaves what the memory backend leaves."""

    def script(backend):
        big, small = "x" * size, "s"
        backend.set("flat", small)
        backend.set("flat", big)
        backend.hset("h", "one", small)
        backend.hset("h", "one", big)
        backend.hset_many("h", {"two": small, "three": big})
        backend.hset_many("h", {"two": big, "three": small, "four": [big]})
        seen = [backend.get("flat"), backend.hgetall("h")]
        backend.set("flat", small)
        backend.hset("h", "one", small)
        backend.hset_many("h", {"two": small})
        assert backend.hdel("h", "four") is True
        seen.append(backend.hgetall("h"))
        backend.hset("h", "four", big)
        assert backend.delete("flat") is True
        backend.set("flat", (big, 1))
        return seen + [
            backend.get("flat"),
            backend.hget("h", "four"),
            backend.hget_many("h", ("one", "two", "three", "gone")),
        ]

    expected = script(MemoryStoreBackend())
    assert script(store_harness.open()) == expected
    backend = store_harness.reopen()
    assert backend.get("flat") == expected[3]
    assert backend.hgetall("h") == expected[2] | {"four": "x" * size}


def test_sqlite_overwrite_keeps_the_rowid(tmp_path):
    """An upsert updates the row where it lies; ``INSERT OR REPLACE`` deleted
    it and inserted a new one at the end of the table (a new rowid)."""
    backend = SqliteStoreBackend(str(tmp_path / "rowid.sqlite3"))

    def rowids():
        (flat,) = backend._conn.execute(
            "SELECT rowid FROM kv WHERE key = 'flat'"
        ).fetchone()
        rows = backend._conn.execute(
            "SELECT field, rowid FROM kv_hash WHERE key = 'h' ORDER BY field"
        ).fetchall()
        return flat, dict(rows)

    backend.set("flat", 0)
    backend.hset("h", "a", 0)
    backend.hset_many("h", {"b": 0, "c": 0})
    before = rowids()
    for round_ in range(1, 50):
        backend.set(f"other{round_}", round_)
        backend.hset(f"other{round_}", "a", round_)
        backend.set("flat", round_)
        backend.hset("h", "a", round_)
        backend.begin_batch()
        backend.hset_many("h", {"b": round_, "c": "x" * round_})
        backend.end_batch()
    assert rowids() == before
    assert backend.get("flat") == 49
    assert backend.hgetall("h") == {"a": 49, "b": 49, "c": "x" * 49}
    backend.close()


def test_sqlite_overwrite_commit_writes_one_page_per_hash(tmp_path):
    """Pages written, as a count: a pipelined commit that overwrites three
    existing hashes appends at most three frames to the WAL, one per leaf
    page holding a touched hash -- no index page, no freelist, no second
    table page. 300 frames stay below the 1,000-page auto-checkpoint, so
    the size of the WAL file is the number of frames appended."""
    path = str(tmp_path / "pages.sqlite3")
    backend = SqliteStoreBackend(path)
    rng = random.Random(20)
    hashes = [f"state:Account:{index}" for index in range(512)]

    def commit(keys, version):
        # Values of one encoded width, so no row outgrows its page.
        backend.begin_batch()
        for key in keys:
            balance = rng.randrange(10**5, 10**6)
            backend.hset_many(key, {"balance": balance, "version": version})
        backend.end_batch()

    commit(hashes, 1000)
    backend._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    (page_size,) = backend._conn.execute("PRAGMA page_size").fetchone()
    commits = 100
    for version in range(1001, 1001 + commits):
        commit(rng.sample(hashes, 3), version)
    frames = (os.path.getsize(path + "-wal") - 32) / (page_size + 24)
    assert frames == int(frames)
    assert commits <= frames <= 3 * commits
    backend.close()


def test_sqlite_backend_refuses_a_library_without_upsert(tmp_path, monkeypatch):
    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 23, 1))
    path = tmp_path / "old.sqlite3"
    with pytest.raises(RuntimeError, match=r">= 3\.24\.0 .* 3\.23\.1"):
        SqliteStoreBackend(str(path))
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# broker log harness
# ---------------------------------------------------------------------------
class LogHarness:
    """Build, and later cold-reopen, one broker log flavor."""

    def __init__(self, flavor: str, tmp_path):
        self.flavor = flavor
        self.tmp_path = tmp_path

    def open(self):
        if self.flavor == "memory":
            self.log = MemoryBrokerLog()
        else:
            self.log = FileJournalLog(str(self.tmp_path / "conformance.journal"))
        return self.log

    def reopen(self):
        if self.flavor == "memory":
            return self.log
        self.log.close()
        return self.open()

    def cleanup(self):
        if self.flavor != "memory" and getattr(self, "log", None):
            self.log.close()


@pytest.fixture(params=BROKER_LOGS)
def log_harness(request, tmp_path):
    harness = LogHarness(request.param, tmp_path)
    yield harness
    harness.cleanup()


def make_broker(log, **config) -> tuple[Kernel, Broker]:
    kernel = Kernel(seed=2)
    broker = Broker(
        kernel,
        BrokerConfig(
            produce_latency=Latency.fixed(0.001),
            consume_latency=Latency.fixed(0.0005),
            **config,
        ),
        log=log,
    )
    return kernel, broker


def test_produce_fetch_and_batch_guards(log_harness):
    kernel, broker = make_broker(log_harness.open())

    async def scenario():
        assert await broker.produce("t", "p1", "a", "prod") == 0
        outcomes = await broker.produce_batch(
            "t",
            [("p1", "b"), ("p2", "c"), ("p3", "d")],
            "prod",
            guards={"p3": lambda: False},
        )
        assert outcomes[:2] == [1, 0]
        assert isinstance(outcomes[2], MQError)
        fetched = await broker.fetch("t", "p1", 0, "cons")
        assert [record.value for record in fetched] == ["a", "b"]
        fetched = await broker.fetch("t", "p2", 0, "cons")
        assert [record.value for record in fetched] == ["c"]

    run(kernel, scenario())
    # The whole batch was one produce round trip, and the guarded entry
    # appended nothing anywhere (including the durable log).
    assert broker.produce_count == 2
    assert broker.produce_record_count == 3
    assert broker.log.retained_records() == 3


def test_fenced_producer_rejects_whole_batch(log_harness):
    kernel, broker = make_broker(log_harness.open())
    broker.fence("prod")

    async def scenario():
        with pytest.raises(FencedMemberError):
            await broker.produce("t", "p1", "a", "prod")
        with pytest.raises(FencedMemberError):
            await broker.produce_batch("t", [("p1", "a")], "prod")

    run(kernel, scenario())
    assert broker.produce_record_count == 0
    assert broker.log.retained_records() == 0


def test_retention_expiry_compacts_log(log_harness):
    kernel, broker = make_broker(log_harness.open(), retention_seconds=10.0)

    async def produce_round(tag):
        await broker.produce_batch(
            "t", [("p1", f"{tag}-1"), ("p1", f"{tag}-2")], "prod"
        )

    run(kernel, produce_round("old"))
    kernel.run(until=kernel.now + 60.0)
    run(kernel, produce_round("new"))

    partition = broker.topic("t").partition("p1")
    assert partition.expire(kernel.now) == 2
    assert partition.first_retained_offset == 2
    assert [record.value for record in partition.unexpired(kernel.now)] == [
        "new-1",
        "new-2",
    ]
    # The log mirrors the trim: replay yields only retained records with
    # their original offsets.
    ((topic, part, first, next_offset, records),) = list(broker.log.replay())
    assert (topic, part, first, next_offset) == ("t", "p1", 2, 4)
    assert [record.offset for record in records] == [2, 3]


def test_restore_from_log_rebuilds_partitions(log_harness):
    kernel, broker = make_broker(log_harness.open(), retention_seconds=10.0)

    async def scenario():
        await broker.produce_batch(
            "t", [("p1", {"req": ("x", 1)}), ("p2", "solo")], "prod"
        )
        await broker.produce("t", "p1", "later", "prod")

    run(kernel, scenario())
    expected = {
        name: list(partition.unexpired(kernel.now))
        for name, partition in broker.topic("t").partitions.items()
    }

    log = log_harness.reopen()
    kernel2 = Kernel(seed=3)
    broker2 = Broker(kernel2, broker.config, log=log)
    restored = broker2.restore_from_log()

    assert restored == 3
    topic = broker2.topics["t"]
    assert set(topic.partitions) == {"p1", "p2"}
    for name, records in expected.items():
        partition = topic.partition(name)
        assert partition.unexpired(kernel2.now) == records
        assert partition.end_offset == records[-1].offset + 1


def test_drop_partition_erased_from_log(log_harness):
    kernel, broker = make_broker(log_harness.open())
    run(kernel, broker.produce("t", "dead", "x", "prod"))
    run(kernel, broker.produce("t", "live", "y", "prod"))
    broker.topic("t").drop_partition("dead")

    log = log_harness.reopen()
    kernel2 = Kernel(seed=4)
    broker2 = Broker(kernel2, broker.config, log=log)
    broker2.restore_from_log()
    assert set(broker2.topic("t").partitions) == {"live"}


def test_meta_survives_reopen(log_harness):
    log_harness.open()
    log_harness.log.set_meta("group:app:generation", 7)
    log_harness.log.set_meta("app:app:epoch:w1", 3)
    log = log_harness.reopen()
    assert log.get_meta("group:app:generation") == 7
    assert log.meta_items()["app:app:epoch:w1"] == 3
    assert log.get_meta("missing") is None


def test_replay_onto_younger_clock_keeps_append_order(log_harness):
    """A new process replays journal timestamps from a clock that was ahead
    of its own; appends after the replay must not break the per-partition
    append-order-implies-timestamp-order invariant that expiry's prefix
    scan relies on."""
    kernel, broker = make_broker(log_harness.open())
    kernel.run(until=50.0)  # the first boot's clock is well ahead
    run(kernel, broker.produce("t", "p1", "old", "prod"))

    log = log_harness.reopen()
    kernel2 = Kernel(seed=6)  # fresh clock starting at 0.0
    broker2 = Broker(kernel2, broker.config, log=log)
    broker2.restore_from_log()
    run(kernel2, broker2.produce("t", "p1", "new", "prod"))
    run(kernel2, broker2.produce("t", "p2", "other", "prod"))

    records = broker2.topic("t").partition("p1").unexpired(kernel2.now)
    timestamps = [record.timestamp for record in records]
    assert timestamps == sorted(timestamps)
    snapshot = unexpired_in_order(broker2.topic("t"), kernel2.now)
    keys = [(r.timestamp, r.partition, r.offset) for r in snapshot]
    assert keys == sorted(keys)
    assert [r.value for r in snapshot if r.partition == "p1"] == ["old", "new"]


def test_journal_rewrite_shrinks_file(tmp_path, monkeypatch):
    """Retention-driven compaction rewrites the journal file in place."""
    monkeypatch.setattr(mq_log, "REWRITE_MIN_RECORDS", 8)
    harness = LogHarness("journal", tmp_path)
    kernel, broker = make_broker(harness.open(), retention_seconds=5.0)

    async def burst(tag):
        await broker.produce_batch(
            "t", [("p1", f"{tag}-{i}") for i in range(10)], "prod"
        )

    run(kernel, burst("old"))
    kernel.run(until=kernel.now + 60.0)
    run(kernel, burst("new"))
    size_before = (tmp_path / "conformance.journal").stat().st_size
    broker.topic("t").partition("p1").expire(kernel.now)
    assert broker.log.rewrites == 1
    size_after = (tmp_path / "conformance.journal").stat().st_size
    assert size_after < size_before

    # The rewritten journal still replays to the exact retained image.
    log = harness.reopen()
    kernel2 = Kernel(seed=5)
    broker2 = Broker(kernel2, broker.config, log=log)
    assert broker2.restore_from_log() == 10
    partition = broker2.topic("t").partition("p1")
    assert partition.first_retained_offset == 10
    assert partition.end_offset == 20
    harness.cleanup()


def test_journal_replay_tolerates_torn_final_line(tmp_path):
    """A crash mid-write leaves a partial trailing line; replay truncates
    it (the record was never acknowledged) instead of refusing to boot."""
    harness = LogHarness("journal", tmp_path)
    kernel, broker = make_broker(harness.open())
    run(kernel, broker.produce("t", "p1", "acked", "prod"))
    harness.log.close()
    path = tmp_path / "conformance.journal"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"k":"r","t":"t","p":"p1","o":1,"ts":9.9,"v":"torn')

    log = harness.open()
    kernel2 = Kernel(seed=7)
    broker2 = Broker(kernel2, broker.config, log=log)
    assert broker2.restore_from_log() == 1  # the acked record survives
    # The torn bytes were truncated away: new appends produce a journal
    # that replays cleanly again.
    run(kernel2, broker2.produce("t", "p1", "after", "prod"))
    log2 = harness.reopen()
    kernel3 = Kernel(seed=8)
    broker3 = Broker(kernel3, broker.config, log=log2)
    assert broker3.restore_from_log() == 2
    values = [
        r.value for r in broker3.topic("t").partition("p1").unexpired(0.0)
    ]
    assert values == ["acked", "after"]
    harness.cleanup()


def test_binary_journal_refuses_mid_file_corruption(tmp_path):
    """A damaged frame with intact frames after it is corruption, not a
    torn tail -- replay must refuse rather than silently drop records."""
    harness = LogHarness("journal", tmp_path)
    kernel, broker = make_broker(harness.open())
    run(kernel, broker.produce("t", "p1", "first", "prod"))
    run(kernel, broker.produce("t", "p1", "second", "prod"))
    harness.log.close()
    path = tmp_path / "conformance.journal"
    intact = path.read_bytes()
    (size,) = struct.unpack_from("<I", intact, 4)
    first_frame_end = 4 + 8 + size  # header, then length + CRC + payload
    # The first frame's leading opcode (after header, length and CRC), and
    # the last byte of its value ("first"): without a checksum the second
    # one would be read as a different record.
    for at in (12, first_frame_end - 1):
        data = bytearray(intact)
        data[at] ^= 0xFF
        path.write_bytes(bytes(data))
        # The refusal releases the append lock: a retry in this process
        # sees the same error again (not JournalLockedError) ...
        for _ in range(2):
            with pytest.raises(ValueError, match="corrupt journal frame at byte 4"):
                harness.open()
    # ... and once the file is repaired the journal opens.
    path.write_bytes(intact)
    log = harness.open()
    assert log.retained_records() == 2
    harness.cleanup()


def test_journal_refuses_unframed_file_and_leaves_it_untouched(tmp_path):
    """A file without the frame header (here: JSON lines) is not a journal.
    The refusal names the path and must not truncate or rewrite it."""
    path = tmp_path / "conformance.journal"
    text = b'{"k":"r","t":"t","p":"p1","o":0,"ts":0.1,"v":"first"}\n'
    path.write_bytes(text)
    harness = LogHarness("journal", tmp_path)
    with pytest.raises(ValueError, match="conformance.journal.*not a version-4"):
        harness.open()
    assert path.read_bytes() == text
    # A frame header with a version this reader does not know is refused
    # the same way.
    versioned = MAGIC + bytes((1,)) + text
    path.write_bytes(versioned)
    with pytest.raises(ValueError, match="conformance.journal.*not a version-4"):
        harness.open()
    assert path.read_bytes() == versioned


def test_binary_journal_tolerates_torn_final_frame(tmp_path):
    """A partial trailing frame (crash mid-append) truncates away."""
    harness = LogHarness("journal", tmp_path)
    kernel, broker = make_broker(harness.open())
    run(kernel, broker.produce("t", "p1", "acked", "prod"))
    harness.log.close()
    path = tmp_path / "conformance.journal"
    data = path.read_bytes()
    with open(path, "ab") as handle:
        handle.write(data[4:25])  # replay a fragment of the first frame
    log = harness.open()
    kernel2 = Kernel(seed=7)
    broker2 = Broker(kernel2, broker.config, log=log)
    assert broker2.restore_from_log() == 1
    run(kernel2, broker2.produce("t", "p1", "after", "prod"))
    log2 = harness.reopen()
    kernel3 = Kernel(seed=8)
    broker3 = Broker(kernel3, broker.config, log=log2)
    assert broker3.restore_from_log() == 2
    values = [
        r.value for r in broker3.topic("t").partition("p1").unexpired(0.0)
    ]
    assert values == ["acked", "after"]
    harness.cleanup()


def test_unencodable_payload_fails_cleanly(tmp_path):
    """A CodecError on a durable log must leave broker and journal both
    without the record (no divergence, no phantom in-memory message)."""
    harness = LogHarness("journal", tmp_path)
    kernel, broker = make_broker(harness.open())
    run(kernel, broker.produce("t", "p1", "good", "prod"))

    from repro.persist import CodecError

    class Unpicklable:
        def __reduce__(self):
            raise TypeError("nope")

    with pytest.raises(CodecError):
        run(kernel, broker.produce("t", "p1", Unpicklable(), "prod"))
    partition = broker.topic("t").partition("p1")
    assert [r.value for r in partition.unexpired(kernel.now)] == ["good"]
    assert partition.end_offset == 1
    assert broker.produce_record_count == 1
    # A later good append reuses the rolled-back offset and replays fine.
    run(kernel, broker.produce("t", "p1", "next", "prod"))
    log = harness.reopen()
    kernel2 = Kernel(seed=9)
    broker2 = Broker(kernel2, broker.config, log=log)
    assert broker2.restore_from_log() == 2
    harness.cleanup()
