"""Store backends: where the simulated Redis keeps its bytes.

:class:`KVStore` models the *service* (latency, fencing, round trips);
a :class:`StoreBackend` is its storage engine. The memory backend keeps
the original dict-of-dicts layout. The SQLite backend writes a WAL-mode
database file (one per application), encoding values as binary frames
(:mod:`repro.persist.framing`) so the contents survive a real process
death; the multi-field
operations (``hset_many`` / ``hget_many`` / ``hgetall``) execute as single
batched transactions, mirroring the single-round-trip store primitives
they back.

Every SQLite write is an upsert (``INSERT ... ON CONFLICT(<primary key>) DO
UPDATE SET value = excluded.value``): an existing row is overwritten where
it lies and keeps its rowid. ``INSERT OR REPLACE`` stores the same bytes but
is a delete plus an insert under a *new* rowid, so each overwrite dirtied
the table B-tree twice, the primary-key index and the freelist -- 6.9 WAL
pages for a three-operation commit where the upsert writes 2.7. Upsert
needs SQLite 3.24; an older library is refused at open (:data:`MIN_SQLITE`).

Backends are synchronous and single-threaded by design: the simulation
kernel serializes every store operation, so atomicity (e.g. for CAS) is a
property of the calling layer, not of the engine.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable

from repro.persist import framing

__all__ = ["MemoryStoreBackend", "SqliteStoreBackend", "StoreBackend"]

#: The first SQLite with ``ON CONFLICT ... DO UPDATE``.
MIN_SQLITE = (3, 24, 0)

_UPSERT_KV = (
    "INSERT INTO kv (key, value) VALUES (?, ?)"
    " ON CONFLICT(key) DO UPDATE SET value = excluded.value"
)
_UPSERT_HASH = (
    "INSERT INTO kv_hash (key, field, value) VALUES (?, ?, ?)"
    " ON CONFLICT(key, field) DO UPDATE SET value = excluded.value"
)


class StoreBackend:
    """Abstract storage engine behind :class:`KVStore`.

    Flat keys and hash keys live in separate namespaces, exactly like the
    ``_data`` / ``_hashes`` split of the original in-memory store.
    """

    def get(self, key: str) -> Any:
        raise NotImplementedError

    def set(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        raise NotImplementedError

    def hget(self, key: str, field: str) -> Any:
        raise NotImplementedError

    def hset(self, key: str, field: str, value: Any) -> None:
        raise NotImplementedError

    def hset_many(self, key: str, mapping: dict[str, Any]) -> None:
        raise NotImplementedError

    def hget_many(self, key: str, fields: tuple[str, ...]) -> dict[str, Any]:
        raise NotImplementedError

    def hgetall(self, key: str) -> dict[str, Any]:
        raise NotImplementedError

    def hdel(self, key: str, field: str) -> bool:
        raise NotImplementedError

    def delete_hash(self, key: str) -> bool:
        raise NotImplementedError

    def keys(self, prefix: str = "") -> list[str]:
        raise NotImplementedError

    def begin_batch(self) -> None:
        """Bracket a pipelined batch: operations until ``end_batch`` belong
        to one round trip (SQLite wraps them in a single transaction)."""

    def end_batch(self) -> None:
        """Close the bracket opened by ``begin_batch``."""

    def op_failed(self, error: Exception) -> bool:
        """An operation inside the open batch raised ``error``; return
        whether that dooms the batch. A doomed batch runs none of its later
        operations, and its ``end_batch`` keeps nothing of it and raises."""
        return False

    def flush(self) -> None:
        """Durability barrier: persist everything accepted so far."""

    def close(self) -> None:
        """Release file handles; the stored data must remain recoverable."""


class MemoryStoreBackend(StoreBackend):
    """The original dict-backed engine; survives only as a live object."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._hashes: dict[str, dict[str, Any]] = {}

    def get(self, key: str) -> Any:
        return self._data.get(key)

    def set(self, key: str, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def hget(self, key: str, field: str) -> Any:
        return self._hashes.get(key, {}).get(field)

    def hset(self, key: str, field: str, value: Any) -> None:
        self._hashes.setdefault(key, {})[field] = value

    def hset_many(self, key: str, mapping: dict[str, Any]) -> None:
        self._hashes.setdefault(key, {}).update(mapping)

    def hget_many(self, key: str, fields: tuple[str, ...]) -> dict[str, Any]:
        bucket = self._hashes.get(key, {})
        return {field: bucket.get(field) for field in fields}

    def hgetall(self, key: str) -> dict[str, Any]:
        return dict(self._hashes.get(key, {}))

    def hdel(self, key: str, field: str) -> bool:
        bucket = self._hashes.get(key)
        if bucket is None:
            return False
        return bucket.pop(field, None) is not None

    def delete_hash(self, key: str) -> bool:
        return self._hashes.pop(key, None) is not None

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._data if key.startswith(prefix))


class SqliteStoreBackend(StoreBackend):
    """WAL-mode SQLite engine: one database file per application.

    Values round-trip through the persist layer, so reads return
    reconstructed copies rather than the original objects -- the semantics
    of any real out-of-process store. Values are stored as headered binary
    frames in BLOBs (SQLite preserves the storage class regardless of the
    columns' TEXT affinity).

    A write overwrites its row where it lies (upsert, module docstring), so
    opening refuses a SQLite older than :data:`MIN_SQLITE`, creating no file.
    """

    def __init__(self, path: str, synchronous: str = "NORMAL"):
        if sqlite3.sqlite_version_info < MIN_SQLITE:
            raise RuntimeError(
                "SqliteStoreBackend needs SQLite >= %d.%d.%d (upsert);"
                " the sqlite3 module is linked against %d.%d.%d"
                % (MIN_SQLITE + sqlite3.sqlite_version_info)
            )
        self.path = path
        self._closed = False
        self._in_batch = False
        #: The SQLite error that doomed the open batch (:meth:`op_failed`).
        self._doomed: sqlite3.Error | None = None
        self._conn = sqlite3.connect(path, isolation_level=None)
        if synchronous.upper() not in ("OFF", "NORMAL", "FULL", "EXTRA"):
            raise ValueError(f"bad synchronous pragma {synchronous!r}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA synchronous={synchronous.upper()}")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv_hash ("
            " key TEXT NOT NULL, field TEXT NOT NULL, value TEXT NOT NULL,"
            " PRIMARY KEY (key, field))"
        )

    def get(self, key: str) -> Any:
        row = self._conn.execute(
            "SELECT value FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else self._decode(row[0])

    def set(self, key: str, value: Any) -> None:
        self._conn.execute(_UPSERT_KV, (key, self._encode(value)))

    def delete(self, key: str) -> bool:
        cursor = self._conn.execute("DELETE FROM kv WHERE key = ?", (key,))
        return cursor.rowcount > 0

    def hget(self, key: str, field: str) -> Any:
        row = self._conn.execute(
            "SELECT value FROM kv_hash WHERE key = ? AND field = ?",
            (key, field),
        ).fetchone()
        return None if row is None else self._decode(row[0])

    def hset(self, key: str, field: str, value: Any) -> None:
        self._conn.execute(_UPSERT_HASH, (key, field, self._encode(value)))

    def hset_many(self, key: str, mapping: dict[str, Any]) -> None:
        # One transaction: the batched write behind the single-round-trip
        # ``hset_many`` store primitive. Inside a pipelined batch the
        # bracketing transaction is already open, so join it instead of
        # nesting.
        rows = [
            (key, field, self._encode(value)) for field, value in mapping.items()
        ]
        if self._in_batch:
            self._conn.executemany(_UPSERT_HASH, rows)
            return
        self._conn.execute("BEGIN")
        try:
            self._conn.executemany(_UPSERT_HASH, rows)
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def hget_many(self, key: str, fields: tuple[str, ...]) -> dict[str, Any]:
        found = self._fetch_fields(key, fields)
        return {field: found.get(field) for field in fields}

    def hgetall(self, key: str) -> dict[str, Any]:
        rows = self._conn.execute(
            "SELECT field, value FROM kv_hash WHERE key = ?", (key,)
        ).fetchall()
        return {field: self._decode(value) for field, value in rows}

    def hdel(self, key: str, field: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM kv_hash WHERE key = ? AND field = ?", (key, field)
        )
        return cursor.rowcount > 0

    def delete_hash(self, key: str) -> bool:
        cursor = self._conn.execute("DELETE FROM kv_hash WHERE key = ?", (key,))
        return cursor.rowcount > 0

    def keys(self, prefix: str = "") -> list[str]:
        rows = self._conn.execute("SELECT key FROM kv").fetchall()
        return sorted(key for (key,) in rows if key.startswith(prefix))

    def begin_batch(self) -> None:
        # One transaction per pipelined round trip: SQLite pays its page
        # bookkeeping once for the whole batch.
        try:
            self._conn.execute("BEGIN")
        except sqlite3.Error:
            self._rollback()
            raise
        self._in_batch = True

    def end_batch(self) -> None:
        self._in_batch = False
        doomed, self._doomed = self._doomed, None
        try:
            if doomed is not None:
                raise doomed
            self._conn.execute("COMMIT")
        except sqlite3.Error:
            self._rollback()
            raise

    def op_failed(self, error: Exception) -> bool:
        # A statement that failed inside the batch may have kept part of
        # its work in the batch's transaction (an ``executemany`` stopped
        # half-way keeps its first rows) or SQLite may have rolled the
        # transaction back, so that later writes would autocommit. Either
        # way the batch cannot commit as issued.
        if isinstance(error, sqlite3.Error):
            self._doomed = error
            return True
        return False

    def _rollback(self) -> None:
        """A failed bracket keeps nothing of its batch and leaves the
        connection outside any transaction, ready for the next one."""
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass  # SQLite had already rolled back (disk full, I/O error)

    def flush(self) -> None:
        self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.commit()
        self._conn.close()

    def _fetch_fields(self, key: str, fields: Iterable[str]) -> dict[str, Any]:
        names = tuple(fields)
        if not names:
            return {}
        placeholders = ",".join("?" for _ in names)
        rows = self._conn.execute(
            "SELECT field, value FROM kv_hash"
            f" WHERE key = ? AND field IN ({placeholders})",
            (key, *names),
        ).fetchall()
        return {field: self._decode(value) for field, value in rows}

    @staticmethod
    def _encode(value: Any) -> bytes:
        return framing.dumps_frame(value)

    @staticmethod
    def _decode(stored: bytes) -> Any:
        return framing.loads_frame(stored)
