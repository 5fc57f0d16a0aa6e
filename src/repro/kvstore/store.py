"""Simulated Redis with latency, CAS, hashes, client fencing -- and
pluggable storage.

The store lives outside any application failure domain (the paper assumes
it survives up to catastrophic failures, Section 3.3). Clients connect with
an identity; fencing an identity makes every later operation from it fail,
which implements forceful disconnection. The fenced set is volatile service
state: it guards against *lingering* clients, and none outlives a cold
restart.

:class:`KVStore` is the service (round trips, fencing, operation
accounting); the bytes live in its
:class:`~repro.kvstore.backend.StoreBackend`. :class:`StoreClient` is where
the eleven operations are defined, each one backend call handed to
``_submit``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kvstore.backend import MemoryStoreBackend, StoreBackend
from repro.kvstore.errors import FencedClientError
from repro.sim import Kernel, Latency, _sleep

__all__ = ["KVStore", "StoreClient"]


class KVStore:
    """The service: flat keys, hash keys, CAS, deterministic latency."""

    def __init__(
        self,
        kernel: Kernel,
        latency: Latency = Latency.fixed(0.0005),
        backend: StoreBackend | None = None,
    ):
        self.kernel = kernel
        self.latency = latency
        self.backend = backend if backend is not None else MemoryStoreBackend()
        self._fenced: set[str] = set()
        self.operation_count = 0
        #: Latency-paying round trips clients made (each may carry a
        #: pipelined batch of operations).
        self.round_trips = 0
        #: Per-connection busy horizon (see ``connection_round_trip``).
        self._conn_free: dict[str, float] = {}

    # ------------------------------------------------------------------
    # connections and fencing
    # ------------------------------------------------------------------
    def client(self, client_id: str) -> "StoreClient":
        return StoreClient(self, client_id)

    def fence(self, client_id: str) -> None:
        """Forcefully disconnect ``client_id``: all later operations fail."""
        self._fenced.add(client_id)

    def unfence(self, client_id: str) -> None:
        """Re-admit an identity (a restarted component gets a fresh epoch)."""
        self._fenced.discard(client_id)

    def is_fenced(self, client_id: str) -> bool:
        return client_id in self._fenced

    async def connection_round_trip(self, client_id: str) -> None:
        """One latency-paying round trip on ``client_id``'s connection.

        A client's connection is serial -- one request/response in flight
        at a time, like a real Redis connection: concurrent operations
        from the same client queue behind each other. That queueing is
        exactly the per-operation cost the pipelined client amortizes by
        packing a whole event-loop turn's operations into one trip.
        """
        self.round_trips += 1
        latency = self.latency.fixed
        if latency is None:
            latency = self.latency.sample(self.kernel.rng)
        now = self.kernel.now
        start = self._conn_free.get(client_id, 0.0)
        if start < now:
            start = now
        finish = start + latency
        self._conn_free[client_id] = finish
        await _sleep(finish - now)

    # ------------------------------------------------------------------
    # synchronous core (used by clients after the latency wait)
    # ------------------------------------------------------------------
    def _check(self, client_id: str) -> None:
        self.operation_count += 1
        if client_id in self._fenced:
            raise FencedClientError(client_id)

    def _cas(self, key: str, expected: Any, value: Any) -> bool:
        """Atomically set ``key`` to ``value`` iff it currently equals
        ``expected`` (``None`` meaning absent). Returns success.

        The read-compare-write runs inside one kernel event, so it is
        atomic regardless of the backend engine.
        """
        current = self.backend.get(key)
        if current != expected:
            return False
        self.backend.set(key, value)
        return True

    def keys(self, prefix: str = "") -> list[str]:
        """Snapshot of flat keys with the given prefix (test/inspection)."""
        return self.backend.keys(prefix)


class StoreClient:
    """A connection bound to a client identity; every op costs one RTT.

    The fencing check happens server-side *when the operation lands*, so an
    operation issued before the fence but arriving after it is rejected --
    exactly the lingering-write scenario of Section 2.3.
    """

    def __init__(self, store: KVStore, client_id: str):
        self.store = store
        self.client_id = client_id

    async def _submit(self, apply: Callable[..., Any], *args: Any) -> Any:
        """How one operation reaches the store: here, a round trip of its
        own (the reference the pipelined client is compared against)."""
        await self.store.connection_round_trip(self.client_id)
        self.store._check(self.client_id)
        return apply(*args)

    async def get(self, key: str) -> Any:
        return await self._submit(self.store.backend.get, key)

    async def set(self, key: str, value: Any) -> None:
        return await self._submit(self.store.backend.set, key, value)

    async def delete(self, key: str) -> bool:
        return await self._submit(self.store.backend.delete, key)

    async def cas(self, key: str, expected: Any, value: Any) -> bool:
        return await self._submit(self.store._cas, key, expected, value)

    async def hget(self, key: str, field: str) -> Any:
        return await self._submit(self.store.backend.hget, key, field)

    async def hset(self, key: str, field: str, value: Any) -> None:
        return await self._submit(self.store.backend.hset, key, field, value)

    async def hset_many(self, key: str, mapping: dict[str, Any]) -> None:
        """Set several hash fields in one round trip (Redis HSET/HMSET)."""
        return await self._submit(
            self.store.backend.hset_many, key, dict(mapping)
        )

    async def hget_many(self, key: str, fields: tuple[str, ...]) -> dict[str, Any]:
        """Read several hash fields in one round trip (Redis HMGET);
        missing fields map to ``None``."""
        return await self._submit(
            self.store.backend.hget_many, key, tuple(fields)
        )

    async def hgetall(self, key: str) -> dict[str, Any]:
        return await self._submit(self.store.backend.hgetall, key)

    async def hdel(self, key: str, field: str) -> bool:
        return await self._submit(self.store.backend.hdel, key, field)

    async def delete_hash(self, key: str) -> bool:
        return await self._submit(self.store.backend.delete_hash, key)
