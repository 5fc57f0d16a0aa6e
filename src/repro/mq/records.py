"""Immutable records stored in partitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.persist import framing
from repro.persist.valuetypes import slot_init

__all__ = ["Record", "ReplayedRecord", "RetainedRecords"]

#: Binary-frame table id for Record (ids below 64 are runtime-reserved).
RECORD_TYPE_ID = 5


@slot_init
@dataclass(frozen=True, slots=True)
class Record:
    """One message at a fixed offset within a partition.

    Slotted: long retention windows keep millions of records resident (in
    the broker log's image and in reconciliation catalogs), so the
    per-record footprint matters.
    """

    partition: str
    offset: int
    timestamp: float
    value: Any

    def __repr__(self) -> str:
        return f"Record({self.partition}@{self.offset} t={self.timestamp:.3f})"


framing.register_frame_type(Record, RECORD_TYPE_ID)

#: ``Record``'s own storage for ``value``, which ``ReplayedRecord`` shadows
#: with a property and uses as the cache of the decoded value.
_VALUE_SLOT = Record.__dict__["value"]
_UNREAD = object()


class ReplayedRecord(Record):
    """A record replayed from a journal frame; its value stays bytes until
    something reads it.

    ``frame`` is the record's whole journal frame (already checksummed) and
    ``value_at`` where the value's encoding starts in it. The first read of
    ``value`` decodes it through ``framing.decode_value`` and keeps it.
    ``envelope_key`` is "a response or a request, for which id, at which
    step", peeked from the bytes (``framing.peek_envelope``), and ``frame``
    lets a journal rewrite copy the record without decoding it. It compares
    equal to, and hashes like, the :class:`Record` that was appended.
    """

    __slots__ = ("frame", "_value_at", "envelope_key")

    def __init__(
        self, partition: str, offset: int, timestamp: float, frame: bytes, value_at: int
    ):
        # Member-descriptor stores, as ``slot_init`` builds for ``Record``:
        # replay runs this once per retained record.
        _set_partition(self, partition)
        _set_offset(self, offset)
        _set_timestamp(self, timestamp)
        _set_frame(self, frame)
        _set_value_at(self, value_at)
        _set_envelope_key(self, framing.peek_envelope(frame, value_at))
        _set_value(self, _UNREAD)

    @property
    def value(self) -> Any:  # type: ignore[override]
        value = _VALUE_SLOT.__get__(self)
        if value is _UNREAD:
            value, end = framing.decode_value(self.frame, self._value_at)
            if end != len(self.frame):
                raise framing.FramingError("journal record frame length mismatch")
            _set_value(self, value)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (self.partition, self.offset, self.timestamp, self.value) == (
            other.partition,
            other.offset,
            other.timestamp,
            other.value,
        )

    __hash__ = Record.__hash__


_set_partition = Record.__dict__["partition"].__set__
_set_offset = Record.__dict__["offset"].__set__
_set_timestamp = Record.__dict__["timestamp"].__set__
_set_value = _VALUE_SLOT.__set__
_set_frame = ReplayedRecord.__dict__["frame"].__set__
_set_value_at = ReplayedRecord.__dict__["_value_at"].__set__
_set_envelope_key = ReplayedRecord.__dict__["envelope_key"].__set__


class RetainedRecords:
    """A partition's retained records, oldest first, with a cheap expiry.

    Retention expires records one or two at a time from the front of a list
    that holds a whole retention window. ``drop_prefix`` therefore only
    advances a head index; the dead prefix is cut from the backing list once
    it is at least half of it, which makes expiry amortised O(expired)
    instead of one whole-list memmove per expired record.
    """

    __slots__ = ("_items", "_head")

    def __init__(self, records: Iterable[Record] = ()):
        self._items = list(records)
        self._head = 0

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __getitem__(self, index: int) -> Record:
        return self._items[index + self._head if index >= 0 else index]

    def append(self, record: Record) -> None:
        self._items.append(record)

    def tail(self, skip: int = 0, limit: int | None = None) -> list[Record]:
        """A new list of the records from position ``skip`` on."""
        start = self._head + skip
        return self._items[start : None if limit is None else start + limit]

    def older_than(self, cutoff: float) -> int:
        """How many leading records are stamped before ``cutoff``."""
        items, index = self._items, self._head
        while index < len(items) and items[index].timestamp < cutoff:
            index += 1
        return index - self._head

    def drop_prefix(self, count: int) -> None:
        self._head = min(self._head + count, len(self._items))
        if self._head * 2 >= len(self._items):
            del self._items[: self._head]
            self._head = 0
