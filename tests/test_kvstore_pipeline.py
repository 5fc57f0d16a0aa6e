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
from repro.kvstore.errors import FencedClientError
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
