"""Broker logs: the durable side of the append-only partitions.

The broker's partitions are the paper's journals -- calls, responses, and
tail-call supersessions all live there, and recovery is nothing but a replay
of what they retain (Section 4.3). A :class:`BrokerLog` is the storage
engine behind them:

- :class:`MemoryBrokerLog` keeps a per-partition image of retained records
  in memory. It survives an application ``shutdown``/``reopen`` as a live
  object (the message service outliving the app), not a process death.
- :class:`FileJournalLog` additionally appends one length-prefixed binary
  frame per record to a journal file, with retention expiry recorded as
  compaction markers and the whole file rewritten once enough expired
  records accumulate (retention-driven compaction). Replay is
  offset-indexed: entries carry explicit offsets, so a cold restart
  reconstructs every partition's ``first_retained_offset`` /
  ``end_offset`` exactly.

The log also stores a small metadata map (group generation, component
epochs, boot counter) that must outlive the application processes but does
not belong in any partition.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from typing import Any, Iterator

from repro.mq.errors import JournalLockedError, JournalReadOnlyError
from repro.mq.records import Record, RetainedRecords
from repro.persist import framing

try:  # advisory file locking is POSIX-only; elsewhere the guard is a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["BrokerLog", "FileJournalLog", "MemoryBrokerLog"]

#: Length prefix for journal frames.
_U32 = struct.Struct("<I")


class _PartitionImage:
    """Retained records plus offset bounds for one partition."""

    __slots__ = ("records", "first_retained_offset", "next_offset")

    def __init__(self) -> None:
        self.records = RetainedRecords()
        self.first_retained_offset = 0
        self.next_offset = 0


class BrokerLog:
    """In-memory partition image; subclasses add durability underneath.

    Every mutation the broker performs on a partition is mirrored here:
    ``append_many`` after each produce round trip, ``compact`` when
    retention expiry trims a prefix, ``drop_partition`` when a dead queue
    is discarded. ``replay`` hands the image back so a rebuilt broker can
    reconstruct its topics.
    """

    def __init__(self) -> None:
        self._parts: dict[tuple[str, str], _PartitionImage] = {}
        self._meta: dict[str, Any] = {}
        #: Records accepted across the log's lifetime (evidence counter).
        self.records_logged = 0
        #: Prefix-trim operations applied (retention compactions).
        self.compactions = 0

    # ------------------------------------------------------------------
    # record image
    # ------------------------------------------------------------------
    def _part(self, topic: str, partition: str) -> _PartitionImage:
        image = self._parts.get((topic, partition))
        if image is None:
            image = self._parts[(topic, partition)] = _PartitionImage()
        return image

    def append_many(self, topic: str, records: list[Record]) -> None:
        """Mirror freshly appended records (one produce round trip).

        Durability first: the image only mutates once the persistence hook
        accepted the batch, so a failed write (encoding, disk) leaves the
        log image agreeing with the file and the broker free to roll its
        partitions back.
        """
        self._persist_append(topic, records)
        for record in records:
            image = self._part(topic, record.partition)
            image.records.append(record)
            image.next_offset = record.offset + 1
            self.records_logged += 1

    def compact(self, topic: str, partition: str, keep_from: int) -> None:
        """Retention expired every record below offset ``keep_from``."""
        image = self._parts.get((topic, partition))
        if image is None or keep_from <= image.first_retained_offset:
            return
        drop = keep_from - image.first_retained_offset
        image.records.drop_prefix(drop)
        image.first_retained_offset = keep_from
        image.next_offset = max(image.next_offset, keep_from)
        self.compactions += 1
        self._persist_compact(topic, partition, keep_from)

    def drop_partition(self, topic: str, partition: str) -> None:
        if self._parts.pop((topic, partition), None) is not None:
            self._persist_drop(topic, partition)

    def replay(self) -> Iterator[tuple[str, str, int, int, list[Record]]]:
        """Yield ``(topic, partition, first_retained, next_offset, records)``
        for every partition the log retains."""
        for (topic, partition), image in sorted(self._parts.items()):
            yield (
                topic,
                partition,
                image.first_retained_offset,
                image.next_offset,
                image.records.tail(),
            )

    def retained_records(self) -> int:
        return sum(len(image.records) for image in self._parts.values())

    # ------------------------------------------------------------------
    # metadata (group generation, epochs, boot counter)
    # ------------------------------------------------------------------
    def get_meta(self, key: str) -> Any:
        return self._meta.get(key)

    def set_meta(self, key: str, value: Any) -> None:
        self._meta[key] = value
        self._persist_meta()

    def meta_items(self) -> dict[str, Any]:
        return dict(self._meta)

    # ------------------------------------------------------------------
    # durability hooks (no-ops in memory)
    # ------------------------------------------------------------------
    def _persist_append(self, topic: str, records: list[Record]) -> None:
        pass

    def _persist_compact(self, topic: str, partition: str, keep_from: int) -> None:
        pass

    def _persist_drop(self, topic: str, partition: str) -> None:
        pass

    def _persist_meta(self) -> None:
        pass

    def flush(self) -> None:
        """Durability barrier: persist everything accepted so far."""

    def close(self) -> None:
        """Release file handles; logged data must remain recoverable."""


class MemoryBrokerLog(BrokerLog):
    """The image alone: durable across app restarts, not process death."""


class FileJournalLog(BrokerLog):
    """Append-only file journal with offset-indexed replay and compaction.

    The file is a 4-byte header (the frame magic plus version byte)
    followed by length-prefixed frames, each one entry tuple in the binary
    framing codec::

        ("r", topic, partition, offset, ts, value)   # record
        ("c", topic, partition, keep_from)           # compaction
        ("d", topic, partition)                      # drop
        ("s", topic, partition, first, next)         # bounds (after rewrite)

    A non-empty file that does not start with that header is refused with a
    ``ValueError`` naming the path, and is left untouched. Metadata lives
    beside the journal in ``<journal>.meta.json``, rewritten atomically (it
    is tiny and changes only on rebalances and deploys).

    Locking: the single appender holds an *exclusive* ``flock`` on the
    ``<journal>.lock`` sidecar for its whole lifetime (a second appender is
    rejected with :class:`JournalLockedError`; the lock survives
    :meth:`rewrite`, whose ``os.replace`` swaps the journal file, not the
    sidecar). A ``read_only=True`` opener is an observer of a possibly-live
    journal: it takes a *shared* ``flock`` on the journal file itself --
    any number of observers coexist with each other and with the appender
    -- replays a snapshot as of open (reopen to refresh), never truncates a
    torn tail (that is the appender's recovery job), and raises
    :class:`JournalReadOnlyError` from every mutation path.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        compact_min_records: int = 4096,
        compact_ratio: float = 0.5,
        read_only: bool = False,
    ):
        super().__init__()
        self.path = path
        self.meta_path = path + ".meta.json"
        self.lock_path = path + ".lock"
        self.read_only = read_only
        self._fsync = fsync
        self._compact_min_records = compact_min_records
        self._compact_ratio = compact_ratio
        #: Record entries sitting in the file since the last rewrite.
        self._disk_records = 0
        #: Pre-encoded entries for the append in progress (see append_many).
        self._staged_lines: list[bytes] | None = None
        #: Request-core memo shared by every frame this journal encodes.
        self._frame_cache = framing.FrameCache()
        #: Full-file rewrites performed (the compaction evidence counter).
        self.rewrites = 0
        if read_only:
            # Observers replay without the append lock; a missing journal
            # raises FileNotFoundError (there is nothing to observe yet).
            self._lock_handle = self._open_shared()
            self._file = self._lock_handle
        else:
            # Take the append lock *before* replaying: two workers must
            # never interleave frames into one partition journal, so the
            # second opener is rejected here, before it can observe (or
            # disturb) the first opener's image.
            self._lock_handle = self._open_locked()
            self._file = open(self.path, "ab")
        try:
            found = self._load()
            if not found and not read_only:
                self._file.write(framing.HEADER)
                self._flush_file()
        except BaseException:
            # A refused journal must not keep the append lock: a retry in
            # this process has to see the real error again, not
            # JournalLockedError.
            self._file.close()
            self._lock_handle.close()
            raise

    @classmethod
    def open_read_only(cls, path: str) -> "FileJournalLog":
        """An observer over ``path``: shared lock, snapshot replay."""
        return cls(path, read_only=True)

    def _open_locked(self) -> Any:
        """Take the appender's exclusive advisory lock (sidecar file).

        ``flock`` is per open file description, so the guard also catches a
        second :class:`FileJournalLog` over the same path inside one
        process. The handle is held for the journal's whole lifetime --
        unlike a lock on the journal file itself it survives the
        ``os.replace`` in :meth:`rewrite` -- and released on ``close``.
        """
        handle = open(self.lock_path, "ab")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise JournalLockedError(
                    f"journal {self.path!r} is already locked by another "
                    "opener; a partition journal admits exactly one appender"
                ) from None
        return handle

    def _open_shared(self) -> Any:
        """Take an observer's *shared* advisory lock on the journal file.

        Observers do not contend with the appender (whose exclusive lock
        lives on the sidecar) or with each other; the shared lock only
        blocks tools that demand exclusive access to the data file.
        """
        handle = open(self.path, "rb")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_SH | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise JournalLockedError(
                    f"journal {self.path!r} is exclusively locked; cannot "
                    "open a read-only observer"
                ) from None
        return handle

    def _assert_writable(self) -> None:
        if self.read_only:
            raise JournalReadOnlyError(
                f"journal {self.path!r} was opened read-only; observers "
                "replay and inspect, the appender owns every mutation"
            )

    # ------------------------------------------------------------------
    # replaying an existing journal
    # ------------------------------------------------------------------
    def _load(self) -> bool:
        """Replay the journal file; False for a missing or empty journal."""
        if os.path.exists(self.meta_path):
            with open(self.meta_path, "r", encoding="utf-8") as handle:
                self._meta = json.load(handle)
        if not os.path.exists(self.path):
            return False
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data:
            return False
        if not data.startswith(framing.HEADER):
            raise ValueError(
                f"{self.path!r} is not a version-2 framed journal "
                f"(it starts with {data[:4]!r})"
            )
        pos = 4
        total = len(data)
        while pos < total:
            if pos + 4 > total:
                break  # torn length prefix at the tail
            (size,) = _U32.unpack_from(data, pos)
            end = pos + 4 + size
            if end > total:
                break  # torn frame payload at the tail
            try:
                entry, consumed = framing.decode_value(data, pos + 4)
                if consumed != end:
                    raise framing.FramingError("frame length mismatch")
            except framing.FramingError:
                # A bad final frame is the torn residue of a crash mid-write
                # (the record it carried was never acknowledged): truncate
                # and recover. A bad frame *followed by* intact bytes is
                # real corruption -- refuse to guess.
                if end == total:
                    break
                raise ValueError(
                    f"corrupt journal frame at byte {pos} in {self.path!r}"
                ) from None
            self._apply(entry)
            pos = end
        if pos < total and not self.read_only:
            # The torn entry was never acknowledged; drop it. (Observers
            # stop at the tear and leave recovery to the appender.)
            with open(self.path, "rb+") as handle:
                handle.truncate(pos)
        return True

    def _apply(self, entry: tuple) -> None:
        """Apply one replayed journal entry to the in-memory image."""
        kind = entry[0]
        # One topic/partition string is shared by thousands of entries:
        # interning keeps replay memory flat and key comparisons cheap.
        topic = sys.intern(entry[1])
        partition = sys.intern(entry[2])
        if kind == "r":
            image = self._part(topic, partition)
            record = Record(partition, entry[3], entry[4], entry[5])
            image.records.append(record)
            image.next_offset = record.offset + 1
            self._disk_records += 1
        elif kind == "c":
            image = self._part(topic, partition)
            keep = entry[3]
            drop = keep - image.first_retained_offset
            if drop > 0:
                image.records.drop_prefix(drop)
                image.first_retained_offset = keep
                image.next_offset = max(image.next_offset, keep)
        elif kind == "d":
            self._parts.pop((topic, partition), None)
        elif kind == "s":
            image = self._part(topic, partition)
            image.first_retained_offset = entry[3]
            image.next_offset = entry[4]
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")

    # ------------------------------------------------------------------
    # durability hooks
    # ------------------------------------------------------------------
    def append_many(self, topic: str, records: list[Record]) -> None:
        # Encode *before* the in-memory image mutates: an unencodable
        # payload must fail the append cleanly, leaving image and file
        # agreeing (the broker then rolls back its partitions too).
        self._assert_writable()
        self._staged_lines = [self._record_line(topic, r) for r in records]
        try:
            super().append_many(topic, records)
        finally:
            self._staged_lines = None

    def _record_line(self, topic: str, record: Record) -> bytes:
        return self._frame_bytes(
            (
                "r",
                topic,
                record.partition,
                record.offset,
                record.timestamp,
                record.value,
            )
        )

    def _frame_bytes(self, entry: tuple) -> bytes:
        payload = framing.encode_value(entry, self._frame_cache)
        return _U32.pack(len(payload)) + payload

    def _persist_append(self, topic: str, records: list[Record]) -> None:
        # One write + flush per produce round trip: the batched-produce
        # path journals a whole batch in a single I/O burst.
        lines = self._staged_lines
        assert lines is not None and len(lines) == len(records)
        self._file.write(b"".join(lines))
        self._flush_file()
        self._disk_records += len(records)

    def _persist_compact(self, topic: str, partition: str, keep_from: int) -> None:
        self._assert_writable()
        self._file.write(self._frame_bytes(("c", topic, partition, keep_from)))
        self._flush_file()
        self._maybe_rewrite()

    def _persist_drop(self, topic: str, partition: str) -> None:
        self._assert_writable()
        self._file.write(self._frame_bytes(("d", topic, partition)))
        self._flush_file()
        self._maybe_rewrite()

    def _persist_meta(self) -> None:
        self._assert_writable()
        tmp_path = self.meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self._meta, handle, separators=(",", ":"))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.meta_path)

    def _flush_file(self) -> None:
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # retention-driven journal rewrite
    # ------------------------------------------------------------------
    def _maybe_rewrite(self) -> None:
        live = self.retained_records()
        dead = self._disk_records - live
        if dead < self._compact_min_records:
            return
        if self._disk_records and live > self._compact_ratio * self._disk_records:
            return
        self.rewrite()

    def rewrite(self) -> None:
        """Rewrite the journal with only the retained image (in place)."""
        self._assert_writable()
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(framing.HEADER)
            for (topic, partition), image in sorted(self._parts.items()):
                handle.write(
                    self._frame_bytes(
                        (
                            "s",
                            topic,
                            partition,
                            image.first_retained_offset,
                            image.next_offset,
                        )
                    )
                )
                for record in image.records.tail():
                    handle.write(self._record_line(topic, record))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        # The append lock lives on the sidecar and was never dropped; only
        # the data handle needs reopening over the replaced file.
        self._file = open(self.path, "ab")
        self._disk_records = self.retained_records()
        self.rewrites += 1

    def flush(self) -> None:
        if self.read_only:
            return
        self._flush_file()

    def close(self) -> None:
        if self._file.closed:
            return
        if not self.read_only:
            self._flush_file()
        self._file.close()
        if not self._lock_handle.closed:
            self._lock_handle.close()
