"""Broker logs: the one image of the append-only partitions.

The broker's partitions are the paper's journals -- calls, responses, and
tail-call supersessions all live there, and recovery is nothing but a replay
of what they retain (Section 4.3). A :class:`BrokerLog` owns what they
retain: one image per partition, a :class:`~repro.mq.records.RetainedRecords`
(timestamp and value columns, ``first_retained_offset``, ``next_offset``,
each held once), which a broker's ``Partition`` objects read and append
through without keeping anything of their own. The log stores no record
objects.

- :class:`MemoryBrokerLog` is that image and nothing else. It survives an
  application ``shutdown``/``reopen`` as a live object (the message service
  outliving the app), not a process death.
- :class:`FileJournalLog` additionally appends one checksummed binary
  frame per record to a journal file, with retention expiry recorded as
  compaction markers and the whole file rewritten once enough expired
  records accumulate (retention-driven compaction, sized by the module
  constants ``REWRITE_MIN_RECORDS`` and ``REWRITE_RATIO``). Replay is
  offset-indexed: entries carry explicit offsets, so a cold restart
  reconstructs every partition's ``first_retained_offset`` /
  ``end_offset`` exactly. A record's head (partition id, offset,
  timestamp) is a fixed ``struct`` read without the value codec; values
  stay frame bytes (a :class:`~repro.mq.records.ReplayedValue` in the
  value column) until something reads them.

The log also stores a small metadata map (group generation, component
epochs, boot counter, partition leases) that must outlive the application
processes but does not belong in any partition; on a journal it is frames
of the same file.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from typing import Any, Iterable, Iterator

from repro.mq.errors import JournalLockedError
from repro.mq.records import RecordRun, ReplayedValue, RetainedRecords
from repro.persist import framing

try:  # advisory file locking is POSIX-only; elsewhere the guard is a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["BrokerLog", "FileJournalLog", "JOURNAL_HEADER", "MemoryBrokerLog"]

#: Journal version 4: every frame carries a CRC-32 of its payload, and a
#: record frame opens with a fixed binary head. (The value encoding inside
#: the frames is still framing's version 2.)
JOURNAL_VERSION = 4
#: The four bytes that open a journal file.
JOURNAL_HEADER = framing.MAGIC + bytes((JOURNAL_VERSION,))
#: Earlier journal versions, each refused by name: none is read or migrated.
_RETIRED_VERSIONS = {
    2: "written before frame checksums",
    3: "written before binary record heads",
}
#: A frame's header: payload length, then CRC-32 of the payload.
_FRAME_HEAD = struct.Struct("<II")
#: A record payload's head: the kind byte ``r``, the partition id its ``p``
#: entry declared, the offset and the timestamp. The record's value
#: encoding follows it. Every other entry is a tuple in the value codec,
#: whose first byte is a tuple opcode, never ``r``.
_RECORD_HEAD = struct.Struct("<BIqd")
_RECORD_KIND = ord("r")
#: A journal is rewritten once at least this many of its record entries
#: are dead (expired or dropped) ...
REWRITE_MIN_RECORDS = 4096
#: ... and the live ones are at most this share of all its record entries.
REWRITE_RATIO = 0.5


#: One partition's share of an ``append_many``: its image, the timestamp
#: its new records get, and their values.
_Staged = tuple[RetainedRecords, float, list]


class BrokerLog:
    """The partition images and the metadata map; subclasses add durability.

    The broker keeps no second copy: its partitions hand values to
    :meth:`append_many`, which gives them offsets and timestamps, and read
    the same :meth:`image` back. ``compact`` trims a prefix when retention
    expires it and ``drop_partition`` discards a dead queue.

    One ordering rule for the four mutations (``append_many``, ``compact``,
    ``drop_partition``, ``set_meta``): **journal first, image second**. The
    durability hook runs before anything in memory moves, so a hook that
    raises (an unencodable payload, a full disk) leaves image and metadata
    exactly as they were, agreeing with the file, and the caller has nothing
    to undo. ``_maybe_rewrite`` runs last, once the image has moved, because
    it sizes the rewrite from the image.
    """

    def __init__(self) -> None:
        self._parts: dict[tuple[str, str], RetainedRecords] = {}
        self._meta: dict[str, Any] = {}
        #: Records accepted across the log's lifetime (evidence counter).
        self.records_logged = 0
        #: Prefix-trim operations applied (retention compactions).
        self.compactions = 0

    # ------------------------------------------------------------------
    # record image
    # ------------------------------------------------------------------
    def image(self, topic: str, partition: str) -> RetainedRecords:
        """The one image of ``partition``, created empty on first use (an
        empty image is an empty queue: nothing is journaled for it until
        its first record)."""
        image = self._parts.get((topic, partition))
        if image is None:
            image = self._parts[(topic, partition)] = RetainedRecords(partition)
        return image

    def append_many(
        self, topic: str, entries: list[tuple[str, Any]], now: float
    ) -> list[int]:
        """Journal, then publish, one produce round trip's ``(partition,
        value)`` entries; returns the offset each got.

        Each entry gets its partition's next offset, in entry order, and
        the log-append time ``now``, or the partition's newest timestamp if
        that is later. That keeps log-append time monotonic per partition
        (as in Kafka): after a cold replay onto a younger clock, a new
        record may not be stamped below the replayed ones, or the
        append-order-implies-timestamp-order invariant that expiry's prefix
        scan relies on would break.
        """
        parts = self._parts
        staged: dict[str, _Staged] = {}
        offsets: list[int] = []
        for partition, value in entries:
            run = staged.get(partition)
            if run is None:
                image = parts.get((topic, partition))
                if image is None:
                    image = self.image(topic, partition)
                newest = image.newest_stamp
                stamp = now if now > newest else newest
                staged[partition] = (image, stamp, [value])
                offsets.append(image.next_offset)
            else:
                values = run[2]
                offsets.append(run[0].next_offset + len(values))
                values.append(value)
        runs = staged.values()
        self._persist_append(topic, runs)
        for image, timestamp, values in runs:
            image.extend(values, timestamp)
        self.records_logged += len(offsets)
        return offsets

    def compact(self, topic: str, partition: str, keep_from: int) -> None:
        """Retention expired every record below offset ``keep_from``."""
        image = self._parts.get((topic, partition))
        if image is None or keep_from <= image.first_retained_offset:
            return
        self._persist_entry(("c", topic, partition, keep_from))
        image.trim(keep_from)
        self.compactions += 1
        self._maybe_rewrite()

    def drop_partition(self, topic: str, partition: str) -> None:
        if (topic, partition) in self._parts:
            self._persist_entry(("d", topic, partition))
            del self._parts[(topic, partition)]
            self._maybe_rewrite()

    def partitions(self) -> list[tuple[str, str]]:
        """``(topic, partition)`` of every image, sorted."""
        return sorted(self._parts)

    def replay(self) -> Iterator[tuple[str, str, int, int, RecordRun]]:
        """Yield ``(topic, partition, first_retained, next_offset, records)``
        for every partition the log retains."""
        for (topic, partition), image in sorted(self._parts.items()):
            yield (
                topic,
                partition,
                image.first_retained_offset,
                image.next_offset,
                image.run(),
            )

    def retained_records(self) -> int:
        return sum(len(image) for image in self._parts.values())

    # ------------------------------------------------------------------
    # metadata (group generation, epochs, boot counter, leases)
    # ------------------------------------------------------------------
    def get_meta(self, key: str) -> Any:
        return self._meta.get(key)

    def set_meta(self, key: str, value: Any) -> None:
        self._persist_entry(("m", key, value))
        self._meta[key] = value

    def meta_items(self) -> dict[str, Any]:
        return dict(self._meta)

    # ------------------------------------------------------------------
    # durability hooks (no-ops in memory)
    # ------------------------------------------------------------------
    def _persist_append(self, topic: str, runs: Iterable[_Staged]) -> None:
        """Make one ``append_many`` durable: per partition, its image (not
        moved yet: the records go at its ``next_offset`` on), their
        timestamp and their values."""

    def _persist_entry(self, entry: tuple) -> None:
        """Make one compaction, drop or metadata entry durable."""

    def _maybe_rewrite(self) -> None:
        pass

    def flush(self) -> None:
        """Durability barrier: persist everything accepted so far."""

    def close(self) -> None:
        """Release file handles; logged data must remain recoverable."""


class MemoryBrokerLog(BrokerLog):
    """The image alone: durable across app restarts, not process death."""


class FileJournalLog(BrokerLog):
    """Append-only file journal with offset-indexed replay and compaction.

    The file is :data:`JOURNAL_HEADER` (the frame magic plus journal
    version 4) followed by frames ``<u32 length><u32 crc32(payload)>
    <payload>``. A record's payload is a fixed little-endian head, then
    the record's value in the binary framing codec::

        <u8 'r'><u32 partition id><i64 offset><f64 ts> value   # record

    Every other payload is one entry tuple in that codec::

        ("p", topic, partition, id)                  # declare a partition id
        ("c", topic, partition, keep_from)           # compaction
        ("d", topic, partition)                      # drop
        ("s", topic, partition, first, next)         # bounds (after rewrite)
        ("m", key, value)                            # metadata (last one wins)

    A ``p`` entry precedes a partition's first record, in the same write.
    Ids are never reused within a file: a dropped partition's id retires
    with it, and the queue's next record declares a fresh one. A rewrite
    declares each retained partition again under the id it has, so the
    record frames it copies stay valid.

    Replay verifies every frame's CRC and reads an ``r`` frame's head with
    one ``struct`` unpack: its value column gets a
    :class:`~repro.mq.records.ReplayedValue`, decoded when first read and
    copied verbatim by :meth:`rewrite`. Record offsets must follow each
    other within a partition (an empty one may resume at a later offset);
    one that does not is a corrupt frame. A frame that fails its CRC is a
    torn tail when it is the last thing in the file (see :meth:`_torn`),
    and is truncated. Anywhere else it is refused as a corrupt journal
    frame.

    A non-empty file that does not start with that header is refused with a
    ``ValueError`` naming the path, and is left untouched: that includes a
    version-2 journal (no frame checksums) and a version-3 one (records in
    the value codec, header and all), neither of which is read or migrated.
    So is a journal with a ``<journal>.meta.json`` beside it: metadata used
    to be that JSON sidecar, and nothing here reads one.

    Locking: the single appender holds an *exclusive* ``flock`` on the
    ``<journal>.lock`` sidecar for its whole lifetime (a second appender is
    rejected with :class:`JournalLockedError`; the lock survives
    :meth:`rewrite`, whose ``os.replace`` swaps the journal file, not the
    sidecar).
    """

    def __init__(self, path: str, fsync: bool = False):
        super().__init__()
        sidecar = path + ".meta.json"
        if os.path.exists(sidecar):
            raise ValueError(
                f"{sidecar!r} is a metadata sidecar from before metadata "
                "moved into the journal; it is neither read nor migrated"
            )
        self.path = path
        self.lock_path = path + ".lock"
        self._fsync = fsync
        #: Record entries sitting in the file since the last rewrite.
        self._disk_records = 0
        #: The id each partition's records carry in the file (its ``p``).
        self._part_ids: dict[tuple[str, str], int] = {}
        #: The next id to declare: above every id the file has seen.
        self._next_part_id = 0
        #: Full-file rewrites performed (the compaction evidence counter).
        self.rewrites = 0
        # Take the append lock *before* replaying: two workers must never
        # interleave frames into one partition journal, so the second opener
        # is rejected here, before it can observe (or disturb) the first
        # opener's image.
        self._lock_handle = self._open_locked()
        self._file = open(self.path, "ab")
        try:
            if not self._load():
                self._file.write(JOURNAL_HEADER)
                self.flush()
        except BaseException:
            # A refused journal must not keep the append lock: a retry in
            # this process has to see the real error again, not
            # JournalLockedError.
            self._file.close()
            self._lock_handle.close()
            raise

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

    # ------------------------------------------------------------------
    # replaying an existing journal
    # ------------------------------------------------------------------
    def _load(self) -> bool:
        """Replay the journal file; False for a missing or empty journal."""
        if not os.path.exists(self.path):
            return False
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data:
            return False
        if not data.startswith(JOURNAL_HEADER):
            version = data[3] if data[:3] == framing.MAGIC and len(data) > 3 else 0
            if version in _RETIRED_VERSIONS:
                raise ValueError(
                    f"{self.path!r} is a version-{version} journal, "
                    f"{_RETIRED_VERSIONS[version]}; it is neither read nor migrated"
                )
            raise ValueError(
                f"{self.path!r} is not a version-{JOURNAL_VERSION} framed "
                f"journal (it starts with {data[:4]!r})"
            )
        view = memoryview(data)
        pos = len(JOURNAL_HEADER)
        total = len(data)
        frame_head, record_head = _FRAME_HEAD.unpack_from, _RECORD_HEAD.unpack_from
        crc32 = zlib.crc32
        head_size, record_head_size = _FRAME_HEAD.size, _RECORD_HEAD.size
        value_at = head_size + record_head_size
        # Declared partition id -> its image.
        declared: dict[int, RetainedRecords] = {}
        records = 0
        # The loop also stops with fewer bytes left than a frame header:
        # that is a torn header at the tail.
        while pos + head_size <= total:
            size, crc = frame_head(data, pos)
            start = pos + head_size
            end = start + size
            if end > total or crc32(view[start:end]) != crc:
                # The torn residue of a crash mid-write (never acknowledged)
                # is truncated; a damaged frame with intact ones after it is
                # corruption, and replay refuses to guess.
                if self._torn(view, start, end, crc):
                    break
                raise ValueError(
                    f"corrupt journal frame at byte {pos} in {self.path!r}"
                )
            try:
                if size > record_head_size and data[start] == _RECORD_KIND:
                    _, part_id, offset, timestamp = record_head(data, start)
                    image = declared.get(part_id)
                    if image is None:
                        raise framing.FramingError("undeclared partition id")
                    image.append_replayed(offset, timestamp, data[pos:end], value_at)
                    records += 1
                else:
                    # decode_values, not decode_value: the latter is left to
                    # record values alone, so counting its calls counts
                    # values decoded.
                    (entry,), stop = framing.decode_values(data, start, 1)
                    if stop != end:
                        raise framing.FramingError("frame length mismatch")
                    self._apply(entry, declared)
            except framing.FramingError:
                raise ValueError(
                    f"corrupt journal frame at byte {pos} in {self.path!r}"
                ) from None
            pos = end
        self._disk_records += records
        if pos < total:
            # The torn entry was never acknowledged; drop it.
            with open(self.path, "rb+") as handle:
                handle.truncate(pos)
        return True

    @staticmethod
    def _torn(view: memoryview, start: int, end: int, crc: int) -> bool:
        """Whether a frame whose payload ``start:end`` failed its CRC is the
        torn tail of the file rather than damage in the middle of it.

        It is torn when its bytes run to the end of the file, by its length
        or by its CRC, and no shorter run of them matches its CRC (that run
        would be the real payload behind a damaged length, with intact
        frames after it). So one flipped bit anywhere in a frame with
        frames after it is refused, and one in the last frame truncates it.
        """
        total = len(view)
        if end < total:
            # Bytes follow the frame's claimed end: only a last frame whose
            # length was shortened has a CRC over exactly the rest.
            return zlib.crc32(view[start:]) == crc
        running = 0
        for stop in range(start, total - 1):
            running = zlib.crc32(view[stop : stop + 1], running)
            if running == crc:
                return False
        return True

    def _apply(self, entry: tuple, declared: dict[int, RetainedRecords]) -> None:
        """Apply one replayed non-record journal entry to the image;
        ``declared`` maps each live partition id to its partition."""
        kind = entry[0]
        if kind == "m":
            self._meta[entry[1]] = entry[2]
            return
        topic = sys.intern(entry[1])
        partition = sys.intern(entry[2])
        if kind == "p":
            part_id = entry[3]
            self._part_ids[(topic, partition)] = part_id
            declared[part_id] = self.image(topic, partition)
            self._next_part_id = max(self._next_part_id, part_id + 1)
        elif kind == "c":
            image = self.image(topic, partition)
            if entry[3] > image.first_retained_offset:
                image.trim(entry[3])
        elif kind == "d":
            self._parts.pop((topic, partition), None)
            declared.pop(self._part_ids.pop((topic, partition), -1), None)
        elif kind == "s":
            image = self.image(topic, partition)
            image.first_retained_offset = entry[3]
            image.next_offset = entry[4]
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")

    # ------------------------------------------------------------------
    # durability hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _record_frame(part_id: int, offset: int, timestamp: float, value: Any) -> bytes:
        head = _RECORD_HEAD.pack(_RECORD_KIND, part_id, offset, timestamp)
        payload = head + framing.encode_value(value)
        return _FRAME_HEAD.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def _frame_bytes(entry: tuple) -> bytes:
        payload = framing.encode_value(entry)
        return _FRAME_HEAD.pack(len(payload), zlib.crc32(payload)) + payload

    def _persist_append(self, topic: str, runs: Iterable[_Staged]) -> None:
        # Every frame is encoded before the first byte is written (an
        # unencodable payload fails the append with the file untouched, and
        # declares no id), and one write + flush covers the whole produce
        # round trip. Frames go partition by partition.
        ids = self._part_ids
        fresh: dict[tuple[str, str], int] = {}
        frames: list[bytes] = []
        records = 0
        for image, timestamp, values in runs:
            key = (topic, image.partition)
            part_id = ids.get(key)
            if part_id is None:
                part_id = fresh[key] = self._next_part_id + len(fresh)
                frames.append(self._frame_bytes(("p", *key, part_id)))
            for offset, value in enumerate(values, image.next_offset):
                frames.append(self._record_frame(part_id, offset, timestamp, value))
            records += len(values)
        self._file.write(b"".join(frames))
        self.flush()
        if fresh:
            ids.update(fresh)
            self._next_part_id += len(fresh)
        self._disk_records += records

    def drop_partition(self, topic: str, partition: str) -> None:
        super().drop_partition(topic, partition)
        # The id retires with the queue: nothing declared later reuses it.
        self._part_ids.pop((topic, partition), None)

    def _persist_entry(self, entry: tuple) -> None:
        self._file.write(self._frame_bytes(entry))
        self.flush()

    def flush(self) -> None:
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # retention-driven journal rewrite
    # ------------------------------------------------------------------
    def _maybe_rewrite(self) -> None:
        live = self.retained_records()
        dead = self._disk_records - live
        if dead < REWRITE_MIN_RECORDS:
            return
        if self._disk_records and live > REWRITE_RATIO * self._disk_records:
            return
        self.rewrite()

    def rewrite(self) -> None:
        """Rewrite the journal with only the retained image (in place).

        A replayed record is copied as its frame bytes, checksum and all:
        compaction never decodes a value.
        """
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(JOURNAL_HEADER)
            for item in self._meta.items():
                handle.write(self._frame_bytes(("m", *item)))
            for (topic, partition), image in sorted(self._parts.items()):
                part_id = self._part_ids.get((topic, partition))
                if part_id is not None:
                    handle.write(self._frame_bytes(("p", topic, partition, part_id)))
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
                run = image.run()
                for offset, timestamp, value in zip(
                    range(run.first_offset, run.next_offset),
                    run.timestamps,
                    run.values,
                ):
                    handle.write(
                        value.frame
                        if type(value) is ReplayedValue
                        else self._record_frame(part_id, offset, timestamp, value)
                    )
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

    def close(self) -> None:
        if self._file.closed:
            return
        self.flush()
        self._file.close()
        self._lock_handle.close()
