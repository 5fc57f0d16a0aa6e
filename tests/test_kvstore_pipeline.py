"""Pipelined store I/O contract: coalescing, ordering, fencing, latency.

The pipelined client must be observationally identical to the unpipelined
one -- per-operation results, CAS atomicity, landing-time fencing -- while
collapsing every operation issued in one event-loop turn into a single
latency-paying round trip on the client's (serial) connection.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.kvstore import (
    KVStore,
    MemoryStoreBackend,
    PipelinedStoreClient,
    SqliteStoreBackend,
)
from repro.kvstore.backend import _UPSERT_HASH
from repro.kvstore.errors import FencedClientError
from repro.persist import CodecError
from repro.sim import Kernel, Latency

from helpers import run

BACKENDS = ["memory", "sqlite"]


def make_backend(flavor: str, tmp_path):
    if flavor == "memory":
        return MemoryStoreBackend()
    return SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))


@pytest.fixture(params=BACKENDS)
def store_setup(request, tmp_path):
    backend = make_backend(request.param, tmp_path)
    kernel = Kernel(seed=3)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    yield kernel, store
    backend.close()


def test_same_turn_ops_share_one_round_trip(store_setup):
    kernel, store = store_setup
    client = PipelinedStoreClient(store, "c1")

    async def burst():
        # Concurrent tasks all issue within the same event-loop turn.
        writes = [
            kernel.spawn(client.set(f"k{i}", {"payload": i}), name=f"w{i}")
            for i in range(8)
        ]
        reads = [
            kernel.spawn(client.get(f"k{i}"), name=f"r{i}") for i in range(8)
        ]
        await kernel.gather(writes)
        return [await read for read in reads]

    start = kernel.now
    values = run(kernel, burst())
    assert values == [{"payload": i} for i in range(8)]
    assert store.round_trips == 1
    assert store.operation_count == 16
    assert client.largest_batch == 16
    # One batch, one latency sample.
    assert kernel.now - start == pytest.approx(0.0005)


def test_dependent_ops_take_separate_round_trips(store_setup):
    kernel, store = store_setup
    client = PipelinedStoreClient(store, "c1")

    async def cas_loop():
        # Read-modify-write: each await lands before the next op issues,
        # so dependent operations can never share (or reorder within) a
        # round trip.
        assert await client.cas("p", None, "w1") is True
        current = await client.get("p")
        assert await client.cas("p", current, "w2") is True
        return await client.get("p")

    assert run(kernel, cas_loop()) == "w2"
    assert store.round_trips == 4


def test_fence_lands_per_operation(store_setup):
    kernel, store = store_setup
    client = PipelinedStoreClient(store, "c1")

    async def fenced_batch():
        first = kernel.spawn(client.set("a", 1), name="first")
        kernel.spawn(client.set("b", 2), name="second")
        # The fence arrives while the batch is in flight: every operation
        # in it lands after the fence and must be rejected.
        store.fence("c1")
        await first

    with pytest.raises(FencedClientError):
        run(kernel, fenced_batch())
    assert store.backend.get("a") is None
    assert store.backend.get("b") is None


def test_pipeline_matches_unpipelined_results(store_setup):
    kernel, store = store_setup
    plain = store.client("plain")
    piped = PipelinedStoreClient(store, "piped")

    async def scenario(client):
        await client.hset_many("h", {"x": 1, "y": (2, 3)})
        await client.hset("h", "z", None)
        assert await client.hget("h", "x") == 1
        assert await client.hget_many("h", ("x", "y", "missing")) == {
            "x": 1,
            "y": (2, 3),
            "missing": None,
        }
        assert await client.hdel("h", "x") is True
        snapshot = await client.hgetall("h")
        await client.delete_hash("h")
        return snapshot

    assert run(kernel, scenario(plain)) == run(kernel, scenario(piped))


def test_serial_connection_queues_unpipelined_ops(store_setup):
    """Concurrent operations on ONE client queue behind each other (a
    serial connection); the pipelined client amortizes that queueing."""
    kernel, store = store_setup
    plain = store.client("plain")
    piped = PipelinedStoreClient(store, "piped")

    async def fan(client, keys):
        start = kernel.now
        tasks = [
            kernel.spawn(client.set(key, "v"), name=f"op:{key}")
            for key in keys
        ]
        await kernel.gather(tasks)
        return kernel.now - start

    plain_elapsed = run(kernel, fan(plain, [f"p{i}" for i in range(8)]))
    piped_elapsed = run(kernel, fan(piped, [f"q{i}" for i in range(8)]))
    # 8 serial trips vs one shared trip.
    assert plain_elapsed == pytest.approx(8 * 0.0005)
    assert piped_elapsed == pytest.approx(0.0005)


def test_sqlite_batch_joins_bracketing_transaction(tmp_path):
    """hset_many inside a pipelined batch joins the batch transaction
    instead of nesting BEGINs, and everything lands durably."""
    backend = make_backend("sqlite", tmp_path)
    kernel = Kernel(seed=4)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    client = PipelinedStoreClient(store, "c1")

    async def burst():
        tasks = [
            kernel.spawn(client.hset_many("h", {"x": 1, "y": 2}), name="a"),
            kernel.spawn(client.set("flat", "v"), name="b"),
            kernel.spawn(client.hset_many("h", {"z": 3}), name="c"),
        ]
        await kernel.gather(tasks)

    run(kernel, burst())
    assert store.round_trips == 1
    backend.close()

    reopened = SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))
    assert reopened.hgetall("h") == {"x": 1, "y": 2, "z": 3}
    assert reopened.get("flat") == "v"
    reopened.close()


class FailingConnection:
    """The backend's sqlite3 connection, failing one statement once the
    way a full disk does."""

    def __init__(self, conn, statement):
        self._conn = conn
        self._statement = statement

    def execute(self, sql, *parameters):
        if sql == self._statement:
            self._statement = None
            raise sqlite3.OperationalError("database or disk is full")
        return self._conn.execute(sql, *parameters)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.mark.parametrize("statement", ["BEGIN", "COMMIT"])
def test_failed_bracket_fails_its_batch_and_the_next_goes_through(
    tmp_path, statement
):
    """A batch whose BEGIN or COMMIT fails is not acknowledged: every
    operation in it raises, nothing of it is stored, and the pipeline
    carries the next operation instead of dying with the error."""
    backend = make_backend("sqlite", tmp_path)
    backend._conn = FailingConnection(backend._conn, statement)
    kernel = Kernel(seed=5)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    client = PipelinedStoreClient(store, "c1")

    async def outcome(operation):
        try:
            return await operation
        except sqlite3.OperationalError as error:
            return error

    async def scenario():
        lost = await kernel.gather(
            [
                kernel.spawn(outcome(client.hset_many("h", {"x": 1}))),
                kernel.spawn(outcome(client.hget("other", "y"))),
            ]
        )
        assert [type(error) for error in lost] == [sqlite3.OperationalError] * 2
        await kernel.sleep(0.010)
        assert await client.hget("h", "x") is None
        await client.hset_many("h", {"x": 2})

    run(kernel, scenario())
    assert kernel.crashes == []
    assert client.batches_flushed == 3
    backend.close()
    reopened = SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))
    assert reopened.hgetall("h") == {"x": 2}
    reopened.close()


async def outcome_of(operation):
    """The operation's result, or the error it failed with."""
    try:
        return await operation
    except Exception as error:  # noqa: BLE001 - the error is the result
        return error


def test_a_statement_failing_inside_a_batch_dooms_the_batch(tmp_path):
    """An ``hset_many`` that SQLite stops half-way (a trigger aborts on
    field ``boom``) used to keep its first rows in the batch's transaction,
    so the batch committed ``{'a': 1, 'after': 3, 'before': 0}``. A SQLite
    error inside a batch now dooms it: nothing of it is stored, every
    operation of it fails, and the next batch commits."""
    backend = make_backend("sqlite", tmp_path)
    backend._conn.execute(
        "CREATE TRIGGER boom BEFORE INSERT ON kv_hash WHEN NEW.field = 'boom'"
        " BEGIN SELECT RAISE(ABORT, 'boom refused'); END"
    )
    kernel = Kernel(seed=6)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    client = PipelinedStoreClient(store, "c1")

    async def scenario():
        operations = [
            client.hset("h", "before", 0),
            client.hset_many("h", {"a": 1, "boom": 2, "c": 3}),
            client.hset("h", "after", 3),
        ]
        lost = await kernel.gather(
            [kernel.spawn(outcome_of(op)) for op in operations]
        )
        assert [type(error) for error in lost] == [sqlite3.IntegrityError] * 3
        await client.hset("h", "next", 4)

    run(kernel, scenario())
    assert kernel.crashes == []
    assert client.batches_flushed == 2
    backend.close()
    reopened = SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))
    assert reopened.hgetall("h") == {"next": 4}
    reopened.close()


def test_a_fenced_or_unencodable_operation_fails_alone(tmp_path):
    """Only SQLite's own errors doom a batch: an operation refused by the
    fence or by the codec fails by itself, and the rest of its batch
    commits."""
    backend = make_backend("sqlite", tmp_path)
    kernel = Kernel(seed=7)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    client = PipelinedStoreClient(store, "c1")

    async def fence():
        await client._submit(store.fence, "c1")  # lands mid-batch

    async def scenario():
        operations = [
            client.hset("h", "kept", 1),
            client.hset("h", "unencodable", lambda: None),
            client.hset("h", "also kept", 2),
            fence(),
            client.hset("h", "fenced", 3),
        ]
        return await kernel.gather(
            [kernel.spawn(outcome_of(op)) for op in operations]
        )

    kept, unencodable, also_kept, fence_set, fenced = run(kernel, scenario())
    assert kept is None and also_kept is None and fence_set is None
    assert isinstance(unencodable, CodecError)
    assert isinstance(fenced, FencedClientError)
    assert client.batches_flushed == 1
    backend.close()
    reopened = SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))
    assert reopened.hgetall("h") == {"kept": 1, "also kept": 2}
    reopened.close()


class RollingBackConnection(FailingConnection):
    """Fails one statement the way SQLite fails on an I/O error: the whole
    transaction is rolled back before the error is raised."""

    def execute(self, sql, *parameters):
        if sql == self._statement:
            self._statement = None
            self._conn.execute("ROLLBACK")
            raise sqlite3.OperationalError("disk I/O error")
        return self._conn.execute(sql, *parameters)


def test_no_write_of_a_doomed_batch_runs_outside_its_transaction(tmp_path):
    """After SQLite rolled the batch's transaction back, a later write of
    the same batch would run in autocommit mode and be stored at once; a
    doomed batch runs none of its later operations."""
    backend = make_backend("sqlite", tmp_path)
    backend._conn = RollingBackConnection(backend._conn, _UPSERT_HASH)
    kernel = Kernel(seed=8)
    store = KVStore(kernel, Latency.fixed(0.0005), backend=backend)
    client = PipelinedStoreClient(store, "c1")

    async def scenario():
        operations = [
            client.set("before", 0),
            client.hset("h", "x", 1),
            client.set("after", 2),
        ]
        return await kernel.gather(
            [kernel.spawn(outcome_of(op)) for op in operations]
        )

    lost = run(kernel, scenario())
    assert [type(error) for error in lost] == [sqlite3.OperationalError] * 3
    backend.close()
    reopened = SqliteStoreBackend(str(tmp_path / "pipeline.store.sqlite3"))
    assert reopened.keys() == [] and reopened.hgetall("h") == {}
    reopened.close()
