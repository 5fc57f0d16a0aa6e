"""Topics, partitions, append-only logs, bulk expiry, and producer fencing.

One topic per application, one partition per application component
(Section 4.1: "KAR's implementation allocates a dedicated message queue for
each application component"). Partitions only support appending at the end;
completed requests are left in place and later expired in bulk.

Consumers long-poll: :meth:`Broker.end_offset` peeks whether anything is
past a consumer's position, :meth:`Broker.wait_for_append` parks it for free
until the next append when nothing is, and :meth:`Broker.fetch` -- the only
step that costs a ``consume_latency`` round trip and the fence and lease
checks -- runs once per delivered batch (see ``GroupMember.poll``).

What a partition retains is held once, in the image the broker's pluggable
:class:`~repro.mq.log.BrokerLog` owns (columns of timestamps and values,
no record objects): a produce round trip's values are stamped, journaled,
then published to that image -- a lone produce's one record through
``append``, a batch through one ``append_many`` -- so a refused append has
nothing to undo; retention expiry and queue discard go through the log the
same way. :meth:`Broker.restore_from_log` therefore only has to name
the partitions a replayed log holds -- the journal-replay half of the
paper's cold-restart recovery story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.mq.errors import (
    FencedMemberError,
    MQError,
    StaleLeaseError,
    StaleRouteError,
)
from repro.mq.log import BrokerLog, MemoryBrokerLog
from repro.mq.records import RecordRun
from repro.sim import Kernel, Latency, _sleep

__all__ = ["Broker", "BrokerConfig", "Partition", "Topic"]


@dataclass(frozen=True)
class BrokerConfig:
    """Timing and retention parameters.

    ``produce_latency`` models the full produce round trip including
    replication acks (this is what separates ClusterDev from ClusterProd in
    Table 2); ``consume_latency`` models the fetch path. Retention follows
    Section 4.1: expiry after a configurable delay (default: ten minutes).
    """

    produce_latency: Latency = Latency.fixed(0.001)
    consume_latency: Latency = Latency.fixed(0.0005)
    retention_seconds: float = 600.0
    heartbeat_interval: float = 3.0
    session_timeout: float = 10.0
    watchdog_interval: float = 0.5
    rebalance_join_window: float = 2.2
    rebalance_sync_latency: Latency = field(
        default_factory=lambda: Latency.around(0.25, 0.2)
    )


class Partition:
    """One append-only queue: offsets and lazy bulk expiry.

    It stores nothing. Records, ``first_retained_offset`` and the next
    offset live once, in the image the broker's log owns; this is the
    retention policy and the reads over that image. A read is a
    :class:`~repro.mq.records.RecordRun`, which builds
    :class:`~repro.mq.records.Record` views only for a reader that iterates it.
    """

    def __init__(self, topic: "Topic", name: str):
        self.topic = topic
        self.name = name
        self._log = topic.broker.log
        self._image = self._log.image(topic.name, name)

    @property
    def end_offset(self) -> int:
        return self._image.next_offset

    @property
    def first_retained_offset(self) -> int:
        return self._image.first_retained_offset

    def expire(self, now: float) -> int:
        """Drop records older than retention; returns how many were dropped."""
        config = self.topic.broker.config
        image = self._image
        expired = image.older_than(now - config.retention_seconds)
        if expired:
            # The oldest retained record sits at ``next_offset - len``.
            keep_from = image.next_offset - len(image) + expired
            self._log.compact(self.topic.name, self.name, keep_from)
        return expired

    def read_from(
        self, offset: int, now: float, limit: int | None = None
    ) -> RecordRun:
        """Records at offsets >= ``offset`` that are still retained, their
        values decoded.

        Expiry runs only when it is due: when the oldest retained record is
        older than the retention cutoff, which the image's ``read`` checks
        against the timestamp column's head in the same call. Inside the
        window a read costs no scan and no compaction.
        """
        image = self._image
        run = image.read(
            offset, limit, now - self.topic.broker.config.retention_seconds
        )
        if run is None:  # the oldest record is past retention
            self.expire(now)
            run = image.read(offset, limit)
            assert run is not None  # no record is stamped below -inf
        return run

    def unexpired(self, now: float) -> RecordRun:
        """Every record still retained (replayed values left undecoded)."""
        self.expire(now)
        return self._image.run()

    def snapshot(self) -> RecordRun:
        """All retained records *without* triggering retention expiry.

        The dead-letter parking lot reads through this: parked envelopes
        must outlive the retention window of ordinary traffic, so nothing
        on the parking-lot read path may start an expiry sweep.
        """
        return self._image.run()

    def __len__(self) -> int:
        return len(self._image)


class Topic:
    """A named topic whose partitions are created on demand, one per member."""

    def __init__(self, broker: "Broker", name: str):
        self.broker = broker
        self.name = name
        self.partitions: dict[str, Partition] = {}

    def partition(self, name: str) -> Partition:
        partition = self.partitions.get(name)
        if partition is None:
            partition = Partition(self, name)
            self.partitions[name] = partition
            self.broker._partitions[(self.name, name)] = partition
        return partition

    def drop_partition(self, name: str) -> None:
        """Discard a failed component's queue after reconciliation (§4.3)."""
        if name in self.partitions:
            self.broker.log.drop_partition(self.name, name)
            del self.partitions[name]
            del self.broker._partitions[(self.name, name)]

class Broker:
    """The message service; survives application failures by assumption."""

    def __init__(
        self,
        kernel: Kernel,
        config: BrokerConfig | None = None,
        log: BrokerLog | None = None,
    ):
        self.kernel = kernel
        self.config = config or BrokerConfig()
        self.log = log if log is not None else MemoryBrokerLog()
        self.topics: dict[str, Topic] = {}
        #: Every partition of every topic, by ``(topic, partition)``: the
        #: produce, fetch and end-offset paths find theirs in one probe.
        #: ``Topic.partition`` and ``Topic.drop_partition`` keep it current.
        self._partitions: dict[tuple[str, str], Partition] = {}
        self._fenced: set[str] = set()
        #: Per-partition-family ownership: (topic, base name) -> (owner
        #: member id, epoch). See :meth:`acquire_partition_lease`.
        self._leases: dict[tuple[str, str], tuple[str, int]] = {}
        #: Client id -> parsed ``(base, epoch)``, or ``None`` for ids that
        #: are not ``base#epoch``. One entry per incarnation, like the fence
        #: set; saves re-parsing the id on every produce and fetch.
        self._lease_ids: dict[str, tuple[str, int] | None] = {}
        self._append_waiters: dict[tuple[str, str], list] = {}
        #: Produce round trips (one per produce / produce_batch call).
        self.produce_count = 0
        #: Records appended, across all produce paths.
        self.produce_record_count = 0
        self.consume_count = 0

    def topic(self, name: str) -> Topic:
        topic = self.topics.get(name)
        if topic is None:
            topic = Topic(self, name)
            self.topics[name] = topic
        return topic

    def restore_from_log(self) -> int:
        """Name every topic and partition the log holds an image of.

        Called once on a freshly constructed broker (cold restart): every
        partition comes back over its image, exact offsets included, so
        consumers, dedup by (request id, step), and retention expiry
        continue seamlessly. Returns the number of records adopted.
        """
        restored = 0
        for topic_name, partition_name in self.log.partitions():
            restored += len(self.topic(topic_name).partition(partition_name))
        for key, value in self.log.meta_items().items():
            if key.startswith("lease:"):
                lease_topic, base, owner, epoch = value
                self._leases[(lease_topic, base)] = (owner, int(epoch))
        return restored

    # ------------------------------------------------------------------
    # partition ownership leases (cross-worker handoff fencing)
    # ------------------------------------------------------------------
    def acquire_partition_lease(
        self, topic_name: str, base: str, owner: str, epoch: int
    ) -> str | None:
        """Claim ownership of the ``base`` partition family at ``epoch``;
        return the previous holder it supersedes, if any.

        A component incarnation ``base#epoch`` must hold the lease before
        consuming its queue. Acquiring at a strictly higher epoch fences the
        previous holder (its member id can no longer produce or fetch, and
        any batch it has in flight is rejected whole); acquiring at an equal
        or lower epoch raises :class:`StaleLeaseError` -- the acquirer lost
        the handoff race and must terminate. Leases are durable: they are
        mirrored into the broker log's metadata and restored on cold
        restart, so a stale incarnation cannot sneak back in across a
        process death.
        """
        current = self._leases.get((topic_name, base))
        if current is not None and epoch <= current[1]:
            raise StaleLeaseError(
                f"lease for {base!r} held by {current[0]!r} at epoch "
                f"{current[1]}; cannot acquire at epoch {epoch}"
            )
        # Journal first: a refused write leaves the old holder unfenced and
        # the lease where it was.
        self.log.set_meta(
            f"lease:{topic_name}:{base}", [topic_name, base, owner, epoch]
        )
        if current is not None:
            self.fence(current[0])
        self._leases[(topic_name, base)] = (owner, epoch)
        return None if current is None else current[0]

    def partition_lease(self, topic_name: str, base: str) -> tuple[str, int] | None:
        return self._leases.get((topic_name, base))

    def _check_lease(self, topic_name: str, client_id: str) -> None:
        """Reject a client acting under a superseded partition lease.

        Identities are ``base#epoch``; anything else (external clients,
        pre-lease identities) passes. The check complements the fence set:
        it also catches a stale incarnation after a cold restart, when the
        in-memory fence set is empty but the durable lease survived.
        """
        try:
            parsed = self._lease_ids[client_id]
        except KeyError:
            base, sep, epoch_text = client_id.rpartition("#")
            parsed = self._lease_ids[client_id] = (
                (base, int(epoch_text)) if sep and epoch_text.isdigit() else None
            )
        if parsed is None:
            return
        lease = self._leases.get((topic_name, parsed[0]))
        if lease is not None and parsed[1] < lease[1]:
            raise StaleLeaseError(
                f"{client_id!r} superseded by {lease[0]!r} at epoch {lease[1]}"
            )

    # ------------------------------------------------------------------
    # fencing (forceful disconnection)
    # ------------------------------------------------------------------
    def fence(self, client_id: str) -> None:
        self._fenced.add(client_id)

    def is_fenced(self, client_id: str) -> bool:
        return client_id in self._fenced

    # ------------------------------------------------------------------
    # produce / consume primitives
    # ------------------------------------------------------------------
    def _append_batch(
        self, topic_name: str, entries: list[tuple[str, Any]]
    ) -> list[int]:
        """The one body of the batch produce paths: journal and publish the
        batch in one ``append_many`` (which stamps offsets and monotonic
        timestamps), wake the consumers parked on its partitions; returns
        the offsets, aligned with ``entries``.

        A log that refuses the batch (an unencodable payload on a durable
        backend) raises out of here before anything was published, counted
        or woken: the producer sees a failed send and the offsets are free.
        """
        if not entries:
            return []
        partitions = self._partitions
        # A dict, not a set: parked consumers wake in first-appearance
        # order, never string-hash order.
        woken: dict[str, None] = {}
        for partition_name, _value in entries:
            if partition_name not in woken:
                woken[partition_name] = None
                if (topic_name, partition_name) not in partitions:
                    self.topic(topic_name).partition(partition_name)
        offsets = self.log.append_many(topic_name, entries, self.kernel.now)
        self.produce_record_count += len(offsets)
        for partition_name in woken:
            self._wake_append_waiters(topic_name, partition_name)
        return offsets

    async def produce(
        self,
        topic_name: str,
        partition_name: str,
        value: Any,
        client_id: str,
        guard=None,
    ) -> int:
        """Append a message; the await covers the full produce round trip
        (network + replication acks), so the returned offset is durable.

        ``guard``, if given, is evaluated atomically at append time; a falsy
        result raises :class:`StaleRouteError` (the destination left the
        group: its queue is being reconciled) and nothing is appended.
        """
        latency = self.config.produce_latency
        delay = latency.fixed
        await _sleep(latency.sample(self.kernel.rng) if delay is None else delay)
        if client_id in self._fenced:
            raise FencedMemberError(client_id)
        self._check_lease(topic_name, client_id)
        if guard is not None and not guard():
            raise StaleRouteError(partition_name)
        self.produce_count += 1
        # The direct single-record path: one ``log.append`` plus the wake.
        if (topic_name, partition_name) not in self._partitions:
            self.topic(topic_name).partition(partition_name)
        offset = self.log.append(topic_name, partition_name, value, self.kernel.now)
        self.produce_record_count += 1
        self._wake_append_waiters(topic_name, partition_name)
        return offset

    async def produce_batch(
        self,
        topic_name: str,
        entries: list[tuple[str, Any]],
        client_id: str,
        guards: dict[str, Any] | None = None,
    ) -> list[int | MQError]:
        """Append several messages across partitions in ONE produce round
        trip, with per-entry outcomes.

        ``entries`` is a list of ``(partition_name, value)``; ``guards``
        optionally maps a partition name to a zero-argument callable
        evaluated atomically at append time (once per distinct partition).
        The returned list is aligned with ``entries``: the offset of each
        appended message, or an :class:`MQError` for entries whose
        partition guard rejected (those appended nothing; the rest of the
        batch still lands). A fenced producer rejects the whole batch --
        nothing is appended.
        """
        if not entries:
            return []
        latency = self.config.produce_latency
        delay = latency.fixed
        await _sleep(latency.sample(self.kernel.rng) if delay is None else delay)
        if client_id in self._fenced:
            raise FencedMemberError(client_id)
        # A stale-epoch producer rejects the whole batch, exactly like a
        # fenced one: the lease moved on, so none of its appends may land.
        self._check_lease(topic_name, client_id)
        self.produce_count += 1
        verdicts: dict[str, bool] = {}
        for partition_name, _value in entries:
            if partition_name not in verdicts:
                guard = None if guards is None else guards.get(partition_name)
                verdicts[partition_name] = guard is None or bool(guard())
        # One journal write covers the whole produce round trip.
        offsets = iter(
            self._append_batch(
                topic_name, [entry for entry in entries if verdicts[entry[0]]]
            )
        )
        return [
            next(offsets)
            if verdicts[partition_name]
            else MQError(f"append guard rejected {partition_name!r}")
            for partition_name, _value in entries
        ]

    def produce_internal_batch(
        self, topic_name: str, entries: list[tuple[str, Any]]
    ) -> list[int]:
        """Zero-latency batched append for broker-side copies: the whole
        batch is journaled (and, on durable logs, flushed) in one write,
        so recovery I/O does not scale per stranded request."""
        self.produce_count += 1
        return self._append_batch(topic_name, entries)

    async def produce_transaction(
        self,
        topic_name: str,
        entries: list[tuple[str, Any]],
        client_id: str,
        guard=None,
    ) -> list[int]:
        """Atomically append several messages (a Kafka transaction, KIP-98).

        The runtime sends nothing through it: a response is one record in
        the caller's queue. It is kept because the wall-clock benchmark's
        span recorder wraps it by name. Either all entries land or none do;
        one produce round trip is charged.
        """
        latency = self.config.produce_latency
        delay = latency.fixed
        await _sleep(latency.sample(self.kernel.rng) if delay is None else delay)
        if client_id in self._fenced:
            raise FencedMemberError(client_id)
        self._check_lease(topic_name, client_id)
        if guard is not None and not guard():
            raise MQError("append guard rejected transaction")
        self.produce_count += len(entries)
        return self._append_batch(topic_name, entries)

    def end_offset(self, topic_name: str, partition_name: str) -> int:
        """Offset the next append will get; 0 for a partition nobody has
        produced to yet. A peek: it creates nothing and expires nothing."""
        partition = self._partitions.get((topic_name, partition_name))
        return 0 if partition is None else partition._image.next_offset

    def wait_for_append(self, topic_name: str, partition_name: str):
        """Future resolved at the next append to the given partition."""
        waiter = self.kernel.create_future()
        self._append_waiters.setdefault((topic_name, partition_name), []).append(waiter)
        return waiter

    def _wake_append_waiters(self, topic_name: str, partition_name: str) -> None:
        waiters = self._append_waiters.pop((topic_name, partition_name), None)
        if waiters is not None:
            for waiter in waiters:
                waiter.set_result(None)

    async def fetch(
        self,
        topic_name: str,
        partition_name: str,
        offset: int,
        client_id: str,
        limit: int | None = None,
    ) -> RecordRun:
        """One fetch round trip: retained records at offsets >= ``offset``.

        The read happens when the ``consume_latency`` sleep ends, so records
        appended meanwhile are included. Empty only when retention expired
        everything between ``offset`` and the end offset; a consumer that
        peeks :meth:`end_offset` first never pays for an empty fetch.
        """
        latency = self.config.consume_latency
        delay = latency.fixed
        await _sleep(latency.sample(self.kernel.rng) if delay is None else delay)
        if client_id in self._fenced:
            raise FencedMemberError(client_id)
        self._check_lease(topic_name, client_id)
        self.consume_count += 1
        partition = self._partitions.get((topic_name, partition_name))
        if partition is None:
            partition = self.topic(topic_name).partition(partition_name)
        return partition.read_from(offset, self.kernel.now, limit)
