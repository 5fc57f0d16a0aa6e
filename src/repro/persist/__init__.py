"""Pluggable persistence: backend selection for the store and the broker.

The paper's recovery guarantees rest on calls, responses, and actor state
living in services that survive application death (Sections 3.3, 4.2). This
package decides *where* those services keep their bytes:

- ``memory`` (default): state lives in the backend objects themselves.
  They survive :meth:`KarApplication.shutdown` / ``reopen`` (modelling an
  infrastructure service that outlives the application processes) but not
  the death of the Python process.
- ``sqlite``: the store writes a WAL-mode SQLite file and the broker
  appends to a framed binary file journal (:mod:`repro.persist.framing`
  is the one wire format of both), one set of files per application name
  under ``PersistenceConfig.root``: ``<app>.store.sqlite3`` with SQLite's
  ``-wal`` / ``-shm``, ``<app>.journal`` (records, retention markers and
  the broker's metadata) and its ``<app>.journal.lock``. A cold restart
  -- a brand-new process pointed at the same directory -- replays journals
  and reconstructs every topic, partition, placement, and unsettled call.

Backends are chosen through :class:`KarConfig.persistence`; the heavy
implementations are imported lazily so this module stays cycle-free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.persist.framing import CodecError

if TYPE_CHECKING:
    from repro.kvstore.backend import StoreBackend
    from repro.mq.log import BrokerLog

__all__ = [
    "CodecError",
    "PersistenceConfig",
    "build_persistence",
    "reopen_persistence",
    "wipe_persistence",
]


@dataclass(frozen=True)
class PersistenceConfig:
    """Backend selection and durability knobs for one application.

    ``mode`` is ``"memory"`` or ``"sqlite"``. ``root`` names the directory
    holding the durable files (required for ``sqlite``); one store database
    and one broker journal are created per application name. ``synchronous``
    sets the SQLite synchronous pragma (``"OFF"``/``"NORMAL"``/``"FULL"``);
    ``fsync_journal`` forces an ``os.fsync`` after every journal flush.
    When the journal is rewritten in place is not configured here: see
    ``repro.mq.log.REWRITE_MIN_RECORDS`` and ``REWRITE_RATIO``.
    """

    mode: str = "memory"
    root: str | None = None
    synchronous: str = "NORMAL"
    fsync_journal: bool = False

    @staticmethod
    def sqlite(root: str, **overrides: Any) -> "PersistenceConfig":
        return PersistenceConfig(mode="sqlite", root=root, **overrides)


def _paths(config: PersistenceConfig, app_name: str) -> tuple[str, str]:
    if config.root is None:
        raise ValueError("PersistenceConfig.root is required for durable modes")
    os.makedirs(config.root, exist_ok=True)
    store_path = os.path.join(config.root, f"{app_name}.store.sqlite3")
    journal_path = os.path.join(config.root, f"{app_name}.journal")
    return store_path, journal_path


def build_persistence(
    config: PersistenceConfig, app_name: str
) -> tuple["StoreBackend", "BrokerLog"]:
    """Instantiate the (store backend, broker log) pair for one app."""
    if config.mode == "memory":
        from repro.kvstore.backend import MemoryStoreBackend
        from repro.mq.log import MemoryBrokerLog

        return MemoryStoreBackend(), MemoryBrokerLog()
    if config.mode == "sqlite":
        from repro.kvstore.backend import SqliteStoreBackend
        from repro.mq.log import FileJournalLog

        store_path, journal_path = _paths(config, app_name)
        return (
            SqliteStoreBackend(store_path, synchronous=config.synchronous),
            FileJournalLog(journal_path, fsync=config.fsync_journal),
        )
    raise ValueError(f"unknown persistence mode {config.mode!r}")


def reopen_persistence(
    config: PersistenceConfig,
    app_name: str,
    store_backend: "StoreBackend",
    broker_log: "BrokerLog",
) -> tuple["StoreBackend", "BrokerLog"]:
    """Backends for a restarted application.

    Memory backends survive as live objects (the simulated service outlived
    the app), so they are handed back verbatim; durable backends are
    reconstructed from their files, which is exactly what a new process
    would do after a crash.
    """
    if config.mode == "memory":
        return store_backend, broker_log
    return build_persistence(config, app_name)


def wipe_persistence(config: PersistenceConfig, app_name: str) -> None:
    """Delete any durable files for ``app_name`` (a truly fresh start)."""
    if config.mode == "memory":
        return
    store_path, journal_path = _paths(config, app_name)
    for path in (
        store_path,
        store_path + "-wal",
        store_path + "-shm",
        journal_path,
        journal_path + ".lock",
    ):
        if os.path.exists(path):
            os.remove(path)
