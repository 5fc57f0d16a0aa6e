"""What a partition retains, and the record views built for its readers.

A partition's retained messages are columns, not objects
(:class:`RetainedRecords`): a retained message costs a slot in a timestamp
array and a slot in a value list, and its offset is implied by its place.
Reads return :class:`RecordRun` column slices; the hot paths (delivery,
reconciliation catalogs) read the columns, and a reader that wants record
objects iterates a run and gets :class:`Record` views built on the spot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterator

from repro.persist import framing
from repro.persist.valuetypes import slot_init

__all__ = ["Record", "RecordRun", "ReplayedValue", "RetainedRecords"]

#: Binary-frame table id for Record (ids below 64 are runtime-reserved).
RECORD_TYPE_ID = 5

_INF = float("inf")


@slot_init
@dataclass(frozen=True, slots=True)
class Record:
    """One message at a fixed offset within a partition.

    A view: the broker log stores no ``Record``. One is built when a reader
    iterates or indexes a :class:`RecordRun`, from the run's columns.
    """

    partition: str
    offset: int
    timestamp: float
    value: Any

    def __repr__(self) -> str:
        return f"Record({self.partition}@{self.offset} t={self.timestamp:.3f})"


framing.register_frame_type(Record, RECORD_TYPE_ID)

_UNREAD = object()


class ReplayedValue:
    """The value-column entry of a record replayed from a journal frame:
    the value stays bytes until something reads it.

    ``frame`` is the record's whole journal frame (already checksummed) and
    ``value_at`` where the value's encoding starts in it. The first read of
    ``value`` decodes it through ``framing.decode_value`` and keeps it.
    ``envelope_key`` is "a response or a request, for which id, at which
    step", peeked from the bytes (``framing.peek_envelope``), and ``frame``
    lets a journal rewrite copy the record without decoding it.
    """

    __slots__ = ("frame", "value_at", "envelope_key", "_decoded")
    frame: bytes
    value_at: int
    envelope_key: tuple[bool, str, int | None] | None
    _decoded: Any

    @property
    def value(self) -> Any:
        value = self._decoded
        if value is _UNREAD:
            value, end = framing.decode_value(self.frame, self.value_at)
            if end != len(self.frame):
                raise framing.FramingError("journal record frame length mismatch")
            self._decoded = value
        return value


_new_replayed = ReplayedValue.__new__
_set_frame = ReplayedValue.__dict__["frame"].__set__
_set_value_at = ReplayedValue.__dict__["value_at"].__set__
_set_envelope_key = ReplayedValue.__dict__["envelope_key"].__set__
_set_decoded = ReplayedValue.__dict__["_decoded"].__set__


def _view(partition: str, offset: int, timestamp: float, value: Any) -> Record:
    if type(value) is ReplayedValue:
        value = value.value
    return Record(partition, offset, timestamp, value)


@dataclass(slots=True, eq=False)
class RecordRun:
    """Consecutive records of one partition, as columns: what a fetch, a
    catalog or a replay reads.

    ``values[i]`` is the value of the record at offset ``first_offset + i``
    and ``timestamps[i]`` its log-append time. A run from
    :meth:`RetainedRecords.read` holds decoded values; one from
    :meth:`RetainedRecords.run` may hold a :class:`ReplayedValue` where a
    replayed record was not read yet. Iterating or indexing a run builds
    :class:`Record` views, decoding a replayed entry for its view; the
    runtime reads the columns and builds none. A run equals a list or run
    of the same records.
    """

    partition: str
    first_offset: int
    timestamps: array
    values: list

    @property
    def next_offset(self) -> int:
        return self.first_offset + len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Record]:
        partition = self.partition
        for offset, timestamp, value in zip(
            range(self.first_offset, self.next_offset), self.timestamps, self.values
        ):
            yield _view(partition, offset, timestamp, value)

    def __getitem__(self, index: int) -> Record:
        position = range(len(self.values))[index]
        return _view(
            self.partition,
            self.first_offset + position,
            self.timestamps[position],
            self.values[position],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RecordRun, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordRun({self.partition}@{self.first_offset}..{self.next_offset})"


class RetainedRecords:
    """One partition's retained records, oldest first, as two columns.

    A retained record is not an object: it is its log-append time in an
    ``array('d')`` and its value in a list, at the same position. Its
    offset is never stored. The retained records are the partition's
    newest, ending just below ``next_offset``, so the oldest sits at
    ``next_offset - len(self)`` and each next one an offset higher.
    ``first_retained_offset`` is where retention says the queue starts; a
    replayed journal may hold nothing between it and the oldest record.

    A replayed record holds a :class:`ReplayedValue` in the value column,
    decoded on first read.

    Retention expires records one or two at a time from the front of
    columns that hold a whole retention window. :meth:`trim` therefore
    only advances a head index; the dead prefix is cut from both columns
    once it is at least half of them, which makes expiry amortised
    O(expired) instead of one whole-column memmove per expired record.
    """

    __slots__ = (
        "partition",
        "first_retained_offset",
        "next_offset",
        "_stamps",
        "_values",
        "_head",
        "_replayed_end",
    )

    def __init__(self, partition: str):
        self.partition = partition
        self.first_retained_offset = 0
        self.next_offset = 0
        self._stamps = array("d")
        self._values: list[Any] = []
        self._head = 0
        #: Offsets below this may hold a ``ReplayedValue``.
        self._replayed_end = 0

    def __len__(self) -> int:
        return len(self._values) - self._head

    @property
    def newest_stamp(self) -> float:
        """The newest retained record's timestamp (``-inf`` with none): no
        append is stamped below it."""
        stamps = self._stamps
        return stamps[-1] if self._head < len(stamps) else -_INF

    def push(self, value: Any, timestamp: float) -> int:
        """Append ``value`` at the next offset, stamped ``timestamp`` (at
        least ``newest_stamp``: the caller's to check); returns the offset."""
        self._values.append(value)
        self._stamps.append(timestamp)
        offset = self.next_offset
        self.next_offset = offset + 1
        return offset

    def extend(self, values: list[Any], timestamp: float) -> None:
        """Append ``values`` at the next offsets, each stamped
        ``timestamp`` (at least ``newest_stamp``: the caller's to check)."""
        self._values += values
        count = len(values)
        self._stamps.fromlist([timestamp] * count)
        self.next_offset += count

    def append_replayed(
        self, offset: int, timestamp: float, frame: bytes, value_at: int
    ) -> None:
        """Append a record replayed from its journal frame, undecoded.

        Offsets must follow each other. The first record of an empty
        partition may sit at any offset from ``first_retained_offset`` on
        (the records before it were not retained).
        """
        if offset != self.next_offset:
            if self._head < len(self._values) or offset < self.first_retained_offset:
                raise framing.FramingError("journal record offset out of order")
            self.next_offset = offset
        # No ``__init__`` frame: replay builds one entry per retained record.
        entry = _new_replayed(ReplayedValue)
        _set_frame(entry, frame)
        _set_value_at(entry, value_at)
        _set_envelope_key(entry, framing.peek_envelope(frame, value_at))
        _set_decoded(entry, _UNREAD)
        self._values.append(entry)
        self._stamps.append(timestamp)
        self.next_offset += 1
        self._replayed_end = self.next_offset

    def read(
        self, offset: int, limit: int | None = None, cutoff: float = -_INF
    ) -> RecordRun | None:
        """The retained records at offsets >= ``offset``, at most ``limit``
        of them, with every replayed value decoded.

        ``None`` instead when the oldest retained record is stamped before
        ``cutoff``: retention expiry is due, and the caller runs it (through
        the log, which journals it) before it reads again.
        """
        values, head = self._values, self._head
        end = len(values)
        if head < end and self._stamps[head] < cutoff:
            return None
        base = self.next_offset - end  # the offset of column position 0
        start = offset - base
        if start < head:
            start = head
        stop = end if limit is None else start + limit
        run = values[start:stop]
        if base + start < self._replayed_end:
            run = [
                value.value if type(value) is ReplayedValue else value
                for value in run
            ]
        return RecordRun(self.partition, base + start, self._stamps[start:stop], run)

    def run(self) -> RecordRun:
        """Every retained record, replayed values left undecoded."""
        head = self._head
        return RecordRun(
            self.partition,
            self.next_offset - len(self._values) + head,
            self._stamps[head:],
            self._values[head:],
        )

    def older_than(self, cutoff: float) -> int:
        """How many leading records are stamped before ``cutoff``."""
        stamps, index = self._stamps, self._head
        while index < len(stamps) and stamps[index] < cutoff:
            index += 1
        return index - self._head

    def trim(self, keep_from: int) -> None:
        """Forget every record below offset ``keep_from``."""
        values = self._values
        end = len(values)
        base = self.next_offset - end
        head = min(max(keep_from - base, self._head), end)
        if head * 2 >= end:
            del values[:head]
            del self._stamps[:head]
            head = 0
        self._head = head
        self.first_retained_offset = keep_from
        self.next_offset = max(self.next_offset, keep_from)
