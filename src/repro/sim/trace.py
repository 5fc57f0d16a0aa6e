"""Structured event tracing.

The runtime, substrates, and the Reefer application emit trace events. The
guarantee monitor (``repro.obs``) checks exactly-once completion and
happen-before on each event as it is emitted; tests and benchmark harnesses
read the recorded list to regenerate the paper's figures (workflow diagrams,
outage phase breakdowns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped, tagged event with free-form fields."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Append-only event log with simple query helpers."""

    def __init__(self, kernel: Any = None, enabled: bool = True):
        self._kernel = kernel
        #: Off, :meth:`emit` records nothing and feeds no subscriber, so the
        #: guarantee monitor an application subscribes checks nothing. A long
        #: run keeps it on and bounds memory by clearing :attr:`events`,
        #: which no subscriber reads.
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        #: Called with each event; ``reopen()`` hands them to the next boot.
        self.subscribers: list[Callable[[TraceEvent], None]] = []

    def emit(self, kind: str, **fields: Any) -> TraceEvent | None:
        if not self.enabled:
            return None
        time = self._kernel.now if self._kernel is not None else 0.0
        event = TraceEvent(time, kind, fields)
        self.events.append(event)
        for subscriber in self.subscribers:
            subscriber(event)
        return event

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def where(self, kind: str, **matches: Any) -> list[TraceEvent]:
        return [
            event
            for event in self.events
            if event.kind == kind
            and all(event.get(key) == value for key, value in matches.items())
        ]

    def first(self, kind: str, **matches: Any) -> TraceEvent | None:
        for event in self.events:
            if event.kind == kind and all(
                event.get(key) == value for key, value in matches.items()
            ):
                return event
        return None

    def count(self, kind: str, **matches: Any) -> int:
        return len(self.where(kind, **matches))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
