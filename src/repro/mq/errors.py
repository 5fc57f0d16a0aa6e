"""Errors raised by the simulated message broker."""

__all__ = [
    "FencedMemberError",
    "JournalLockedError",
    "MQError",
    "StaleLeaseError",
    "StaleRouteError",
]


class MQError(Exception):
    """Base class for broker failures."""


class StaleRouteError(MQError):
    """The target partition's owner left the group while the send was in
    flight. The sender must re-resolve the route (e.g. via actor placement)
    and retry; nothing was appended."""


class FencedMemberError(MQError):
    """The producer/consumer identity was evicted from its group.

    Once Kafka removes a runtime process from the consumer group, that
    process no longer receives messages and is prevented from sending more,
    even if it is not completely dead (Section 4.2).
    """


class StaleLeaseError(FencedMemberError):
    """The partition's ownership lease moved on to a newer epoch.

    Raised when an old incarnation tries to consume (or keep producing
    under) a partition whose lease a successor incarnation has acquired --
    the cross-worker handoff fence. A stale lease is a fencing condition
    (the holder must terminate, exactly like a group eviction), so this
    subclasses :class:`FencedMemberError` and every fenced-exit path in the
    runtime handles it.
    """


class JournalLockedError(MQError):
    """Another opener already holds the journal file's append lock.

    Two workers must never append to the same partition journal
    concurrently: the second opener is rejected here instead of silently
    interleaving (and corrupting) frames.
    """

