"""Immutable records stored in partitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.persist.framing import register_frame_type

__all__ = ["Record", "RetainedRecords"]

#: Binary-frame table id for Record (ids below 64 are runtime-reserved).
RECORD_TYPE_ID = 5


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


register_frame_type(Record, RECORD_TYPE_ID)


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
