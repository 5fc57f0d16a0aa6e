"""Consumer groups: heartbeats, detection, consensus (rebalance), fencing.

This module implements the failure-detection machinery of Section 4.2/4.3:

- every member heartbeats the coordinator; a member whose heartbeats stop for
  ``session_timeout`` seconds (default 10 s, Kafka's recommended grace period)
  is evicted and *fenced* -- it can no longer produce or consume;
- any membership change triggers a rebalance: the group pauses message flow,
  waits a join window for membership to stabilize, then a sync barrier
  establishes a new *generation* with a deterministic leader (the paper's
  *consensus* phase);
- the group stays paused until the application layer (KAR's reconciliation,
  run by the leader) calls :meth:`GroupCoordinator.resume` for that
  generation. A failure during reconciliation simply yields a newer
  generation whose leader restarts reconciliation.

Consuming is a long poll (:meth:`GroupMember.poll`, modelled on Kafka's
``fetch.max.wait.ms``): a member with nothing past its position parks on the
partition's next append and a parked fetch costs nothing -- no timer, no
round trip, no fence or lease check. An append wakes it; it re-checks the
pause gate and its fence, and only then fetches, so delivery is exactly one
``consume_latency`` after the wake and one delivered batch costs one fetch.
A member fenced while parked stays parked (nothing is owed to it) until the
next append wakes it into :class:`FencedMemberError`; its owner has normally
terminated it long before, from the generation that evicted it.

One group is one :class:`GroupCoordinator`, as one Kafka group has one
coordinator however many consumers it has: every member of an application,
on any worker event loop, joins the same object. A membership wave is
therefore one join window and one generation at any worker count, and a
generation reaches every listener in the kernel event that publishes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import contains
from typing import Any, Callable

from repro.mq.broker import Broker
from repro.mq.errors import FencedMemberError, MQError, StaleRouteError
from repro.mq.records import RecordRun
from repro.sim import Kernel, SimFuture, SimProcess

__all__ = [
    "GenerationInfo",
    "GenerationRecord",
    "GroupCoordinator",
    "GroupMember",
]


@dataclass(frozen=True)
class GenerationInfo:
    """The outcome of one rebalance, delivered to generation listeners."""

    generation: int
    members: tuple[str, ...]
    leader: str | None
    failed: tuple[str, ...]
    joined: tuple[str, ...]
    reason: str
    triggered_at: float
    completed_at: float


@dataclass
class GenerationRecord:
    """History entry used by the benchmark harness to split outage phases."""

    generation: int
    reason: str
    failed: tuple[str, ...]
    joined: tuple[str, ...]
    triggered_at: float
    completed_at: float
    resumed_at: float | None = None


@dataclass
class _MemberState:
    last_heartbeat: float
    member: "GroupMember"


class GroupCoordinator:
    """The group (broker-side machinery; never fails).

    Membership and the pause flag are *session* state: they describe the
    running processes, so a rebuilt coordinator starts empty and unpaused (a
    cold restart must never resurrect ghost members). The generation counter
    is *durable* state: it is written to the broker log's metadata before
    memory moves and restored from there, so recovery-copy epochs stay
    monotonic across cold restarts.
    """

    def __init__(self, broker: Broker, group_id: str, topic_name: str):
        self.broker = broker
        self.kernel: Kernel = broker.kernel
        self.group_id = group_id
        self.topic_name = topic_name
        self._meta_key = f"group:{group_id}:generation"
        self.generation = int(broker.log.get_meta(self._meta_key) or 0)
        self.paused = False
        #: Every live member: its handle and last heartbeat.
        self.members: dict[str, _MemberState] = {}
        #: Membership snapshot of the latest generation.
        self._members_at_generation: frozenset[str] = frozenset()
        self._closed = False
        self.history: list[GenerationRecord] = []
        self._generation_listeners: list[Callable[[GenerationInfo], None]] = []
        self._resume_waiters: list[SimFuture] = []
        self._rebalancing = False
        self._dirty = False
        self._trigger_time = 0.0
        self._reasons: list[str] = []
        self._watchdog_started = False

    def member_ids(self) -> tuple[str, ...]:
        """The membership, sorted."""
        return tuple(sorted(self.members))

    def is_member(self, member_id: str) -> bool:
        return member_id in self.members

    @property
    def leader(self) -> str | None:
        return min(self.members, default=None)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the watchdog and refuse new members (application shutdown).

        The group object is being discarded together with the rest of the
        application's in-memory state; a reopened application builds a new
        coordinator over the same broker log.
        """
        self._closed = True

    def join(
        self, member_id: str, process: SimProcess | None = None
    ) -> "GroupMember":
        """Add a member; starts its heartbeat task and triggers a rebalance."""
        if self._closed:
            raise MQError(f"group {self.group_id!r} coordinator is closed")
        if member_id in self.members:
            raise ValueError(f"duplicate member id {member_id!r}")
        if self.broker.is_fenced(member_id):
            raise FencedMemberError(member_id)
        member = GroupMember(self, member_id, process)
        self.members[member_id] = _MemberState(self.kernel.now, member)
        if not self._watchdog_started:
            self._watchdog_started = True
            self.kernel.spawn(
                self._watchdog_loop(), name=f"watchdog:{self.group_id}"
            )
        self.kernel.spawn(
            self._heartbeat_loop(member_id),
            process=process,
            name=f"heartbeat:{member_id}",
        )
        self._request_rebalance("join")
        return member

    def leave(self, member_id: str) -> None:
        """Graceful departure (still fences, still triggers a rebalance)."""
        self.expel(member_id, reason="leave")

    def expel(self, member_id: str, reason: str = "expelled") -> None:
        """Administrative eviction of a *live* member.

        For when the caller knows a member must go rather than waiting for
        the session watchdog to notice silence: a graceful :meth:`leave`,
        or a restarted incarnation whose partition lease supersedes the
        member (``reason="superseded"``). Same fence + rebalance as any
        eviction.
        """
        if member_id in self.members:
            self._evict(member_id, reason)

    def heartbeat(self, member_id: str) -> None:
        state = self.members.get(member_id)
        if state is not None:
            state.last_heartbeat = self.kernel.now

    def on_generation(
        self, listener: Callable[[GenerationInfo], None]
    ) -> None:
        self._generation_listeners.append(listener)

    def off_generation(self, listener: Callable[[GenerationInfo], None]) -> None:
        self._generation_listeners.remove(listener)

    # ------------------------------------------------------------------
    # heartbeats and the eviction watchdog
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self, member_id: str) -> None:
        interval = self.broker.config.heartbeat_interval
        while member_id in self.members:
            self.heartbeat(member_id)
            await self.kernel.sleep(interval)

    async def _watchdog_loop(self) -> None:
        config = self.broker.config
        while not self._closed:
            await self.kernel.sleep(config.watchdog_interval)
            if self._closed:
                return
            now = self.kernel.now
            expired = [
                member_id
                for member_id, state in self.members.items()
                if now - state.last_heartbeat > config.session_timeout
            ]
            for member_id in expired:
                self._evict(member_id, reason="failure")

    def _evict(self, member_id: str, reason: str) -> None:
        """Remove and fence a member, then trigger the consensus phase."""
        del self.members[member_id]
        self.broker.fence(member_id)
        self._request_rebalance(reason)

    # ------------------------------------------------------------------
    # rebalance (the paper's consensus phase)
    # ------------------------------------------------------------------
    def _request_rebalance(self, reason: str) -> None:
        self.paused = True
        self._reasons.append(reason)
        if self._rebalancing:
            self._dirty = True
            return
        self._rebalancing = True
        self._trigger_time = self.kernel.now
        self.kernel.spawn(
            self._rebalance(), name=f"rebalance:{self.group_id}"
        )

    async def _rebalance(self) -> None:
        config = self.broker.config
        while True:
            self._dirty = False
            await self.kernel.sleep(config.rebalance_join_window)
            await self.kernel.sleep(
                config.rebalance_sync_latency.sample(self.kernel.rng)
            )
            if self._dirty:
                continue
            if self._closed:
                return
            try:
                info = self._publish_generation()
            except OSError:
                # Not durable, so not published: the group stays paused and
                # the next join window tries again.
                continue
            break
        self._rebalancing = False
        self._reasons = []
        self.history.append(
            GenerationRecord(
                generation=info.generation,
                reason=info.reason,
                failed=info.failed,
                joined=info.joined,
                triggered_at=info.triggered_at,
                completed_at=info.completed_at,
            )
        )
        if not info.members:
            # Empty group: nothing can reconcile; resume so future joiners
            # start from a clean pause state.
            self.resume(info.generation)
        for listener in list(self._generation_listeners):
            listener(info)

    def _bump_generation(self) -> int:
        """Journal first, memory second: a write the log refuses leaves the
        counter where the journal has it."""
        generation = self.generation + 1
        self.broker.log.set_meta(self._meta_key, generation)
        self.generation = generation
        return generation

    def _publish_generation(self) -> GenerationInfo:
        """Bump the counter and compute the membership delta since the last."""
        generation = self._bump_generation()
        current = frozenset(self.members)
        previous = self._members_at_generation
        self._members_at_generation = current
        ordered = tuple(sorted(current))
        return GenerationInfo(
            generation=generation,
            members=ordered,
            leader=ordered[0] if ordered else None,
            failed=tuple(sorted(previous - current)),
            joined=tuple(sorted(current - previous)),
            reason="failure" if "failure" in self._reasons else self._reasons[0],
            triggered_at=self._trigger_time,
            completed_at=self.kernel.now,
        )

    # ------------------------------------------------------------------
    # pause gate
    # ------------------------------------------------------------------
    def resume(self, generation: int) -> None:
        """Lift the pause for ``generation``; stale resumes are ignored.

        Called by the reconciliation leader once recovery completes. If a new
        failure arrived meanwhile, ``generation`` is stale and the newer
        generation's leader is responsible for resuming.
        """
        if generation != self.generation or self._rebalancing:
            return
        if not self.paused:
            return
        self.paused = False
        self.history[-1].resumed_at = self.kernel.now
        waiters, self._resume_waiters = self._resume_waiters, []
        for waiter in waiters:
            waiter.set_result(None)

    async def wait_unpaused(self) -> None:
        while self.paused:
            waiter = self.kernel.create_future()
            self._resume_waiters.append(waiter)
            await waiter


class GroupMember:
    """A member handle: send to any partition, poll your own partition.

    Sends and polls respect the group pause ("all components temporarily
    stop sending and receiving messages", Section 4.3) and raise
    :class:`FencedMemberError` once the member is evicted.
    """

    def __init__(
        self,
        coordinator: GroupCoordinator,
        member_id: str,
        process: SimProcess | None,
    ):
        self.coordinator = coordinator
        self.broker: Broker = coordinator.broker
        self.topic_name = coordinator.topic_name
        self.member_id = member_id
        self.process = process
        self.position = 0

    async def send(self, partition_name: str, value: Any) -> int:
        """Durably append ``value`` to another member's queue; returns its
        offset.

        Raises :class:`StaleRouteError` if the target member left the group
        while the send was in flight (its queue is being reconciled); the
        sender must re-resolve the destination and retry. The check happens
        at append time, so a raised send appended nothing.
        """
        if self.coordinator.paused:
            await self.coordinator.wait_unpaused()
        if self.member_id in self.broker._fenced:
            raise FencedMemberError(self.member_id)
        try:
            return await self.broker.produce(
                self.topic_name,
                partition_name,
                value,
                self.member_id,
                # ``coordinator.is_member(partition_name)``, with no Python
                # frame: the membership dict is never rebound.
                guard=partial(contains, self.coordinator.members, partition_name),
            )
        except FencedMemberError:
            raise
        except MQError:
            raise StaleRouteError(partition_name) from None

    async def send_batch(
        self, entries: list[tuple[str, Any]]
    ) -> list[int | StaleRouteError]:
        """Durably append a batch of messages in one produce round trip.

        ``entries`` is a list of ``(partition_name, value)``. The returned
        list is aligned with ``entries``: the appended record's offset on
        success, or a :class:`StaleRouteError` for entries whose target
        member left the group while the send was in flight (those appended
        nothing and must be re-routed individually -- the rest of the batch
        still landed). Guards are evaluated at append time, per partition.
        A fenced or stale-epoch sender raises :class:`FencedMemberError`
        for the whole batch; nothing is appended.
        """
        if self.coordinator.paused:
            await self.coordinator.wait_unpaused()
        if self.member_id in self.broker._fenced:
            raise FencedMemberError(self.member_id)
        members = self.coordinator.members
        guards: dict[str, Callable[[], bool]] = {
            partition: partial(contains, members, partition)
            for partition, _value in entries
        }
        outcomes = await self.broker.produce_batch(
            self.topic_name, entries, self.member_id, guards
        )
        return [
            StaleRouteError(entries[index][0])
            if isinstance(outcome, MQError)
            else outcome
            for index, outcome in enumerate(outcomes)
        ]

    async def poll(self, max_records: int | None = None) -> RecordRun:
        """Block until records are available on this member's own queue.

        A long poll (module docstring): the member parks for free while
        nothing is past ``position``; every wake re-checks the pause gate and
        the fence, then one fetch delivers the batch a ``consume_latency``
        later. ``max_records`` bounds a batch; a backlog beyond it is fetched
        by the next call without parking.
        """
        broker, topic_name, member_id = self.broker, self.topic_name, self.member_id
        key = (topic_name, member_id)
        while True:
            if self.coordinator.paused:
                await self.coordinator.wait_unpaused()
            if member_id in broker._fenced:
                raise FencedMemberError(member_id)
            # ``broker.end_offset``, without the call.
            partition = broker._partitions.get(key)
            if partition is None or partition._image.next_offset <= self.position:
                await broker.wait_for_append(topic_name, member_id)
                continue
            records = await broker.fetch(
                topic_name, member_id, self.position, member_id, max_records
            )
            if records.values:
                self.position = records.first_offset + len(records.values)
                return records
            # The end offset is past ``position`` yet nothing came back:
            # retention expired the whole gap. Skip it, or the loop would
            # re-fetch it every ``consume_latency`` until the next append.
            self.position = broker.end_offset(topic_name, member_id)
