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

Scale-out: the authoritative group state -- membership set, generation
counter, pause flag, and the latest :class:`GenerationInfo` -- is one
:class:`GroupState` object per group. Each worker event loop holds its own
:class:`GroupCoordinator` *view* onto that object: views race generation
bumps with a compare-and-swap (the loser adopts the winner's outcome) and
learn of foreign generations by polling the shared state from their
watchdog, never through each other's callbacks. All views live in one
Python process, so the state is plain attributes. A coordinator constructed
without an explicit state (one view, as in ``KarApplication`` and the unit
tests) builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.mq.broker import Broker
from repro.mq.errors import FencedMemberError, MQError, StaleRouteError
from repro.mq.log import BrokerLog
from repro.mq.records import Record
from repro.sim import Kernel, SimFuture, SimProcess

__all__ = [
    "GenerationInfo",
    "GenerationRecord",
    "GroupCoordinator",
    "GroupMember",
    "GroupState",
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
    member_id: str
    process: SimProcess | None
    last_heartbeat: float
    member: "GroupMember"


class GroupState:
    """The group's authoritative state, shared by every coordinator view.

    One object per group: the generation counter, the pause flag, the
    member set, the membership snapshot of the latest generation, and the
    latest :class:`GenerationInfo`, held as plain attributes. Membership
    and the pause flag are *session* state -- they describe the running
    processes, so a rebuilt state starts empty and unpaused (a cold restart
    must never resurrect ghost members). The generation counter is *durable*
    state: it is mirrored into the broker log's metadata and restored from
    there, so recovery-copy epochs stay monotonic across cold restarts.

    Every operation is synchronous and runs inside one kernel event, so the
    compare-and-swap generation bump is atomic across views.
    """

    def __init__(self, log: BrokerLog, group_id: str):
        self._log = log
        self._meta_key = f"group:{group_id}:generation"
        self.generation = int(log.get_meta(self._meta_key) or 0)
        self.paused = False
        self._members: set[str] = set()
        #: Membership snapshot of the latest generation.
        self.members_at_generation: frozenset[str] = frozenset()
        #: Published outcome of the latest generation.
        self.last_info: GenerationInfo | None = None

    # -- generation ----------------------------------------------------
    def cas_generation(self, expected: int, new: int) -> bool:
        """Atomically bump the generation iff it still equals ``expected``.

        The winner of a racing rebalance advances the counter; losers see
        ``False`` and adopt the winner's published :class:`GenerationInfo`.
        """
        if self.generation != expected:
            return False
        self._log.set_meta(self._meta_key, new)
        self.generation = new
        return True

    # -- membership ----------------------------------------------------
    def member_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def is_member(self, member_id: str) -> bool:
        return member_id in self._members

    def add_member(self, member_id: str) -> None:
        self._members.add(member_id)

    def remove_member(self, member_id: str) -> None:
        self._members.discard(member_id)


class GroupCoordinator:
    """One view onto the group (broker-side machinery; never fails).

    Every view shares the group's :class:`GroupState`; the ``members``
    dict holds only the members *joined through this view* (their
    heartbeat bookkeeping and handles live with the loop that runs them).
    Membership queries (:meth:`member_ids`, :meth:`is_member`,
    :attr:`live_members`) always consult the shared state, so append-time
    guards and routing tables agree across views.
    """

    def __init__(
        self,
        broker: Broker,
        group_id: str,
        topic_name: str,
        state: GroupState | None = None,
    ):
        self.broker = broker
        self.kernel: Kernel = broker.kernel
        self.group_id = group_id
        self.topic_name = topic_name
        #: Members joined through *this view* (local handles + heartbeats).
        self.members: dict[str, _MemberState] = {}
        # Generations survive the application: a coordinator rebuilt over a
        # durable broker log resumes numbering where the old group stopped,
        # so recovery-copy epochs stay monotonic across cold restarts.
        self.state = state if state is not None else GroupState(broker.log, group_id)
        self._closed = False
        self.history: list[GenerationRecord] = []
        self._generation_listeners: list[Callable[[GenerationInfo], None]] = []
        self._resume_waiters: list[SimFuture] = []
        self._rebalancing = False
        self._dirty = False
        self._trigger_time: float | None = None
        self._reasons: list[str] = []
        self._watchdog_started = False
        #: Highest generation this view has delivered to its listeners.
        self._seen_generation = self.state.generation

    # ------------------------------------------------------------------
    # shared-state surfaces (the same answer on every view)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self.state.generation

    @property
    def paused(self) -> bool:
        return self.state.paused

    def member_ids(self) -> tuple[str, ...]:
        """The group-wide membership (all views), sorted."""
        return self.state.member_ids()

    def is_member(self, member_id: str) -> bool:
        return self.state.is_member(member_id)

    @property
    def live_members(self) -> tuple[str, ...]:
        return self.state.member_ids()

    @property
    def leader(self) -> str | None:
        ordered = self.live_members
        return ordered[0] if ordered else None

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
        if member_id in self.members or self.state.is_member(member_id):
            raise ValueError(f"duplicate member id {member_id!r}")
        if self.broker.is_fenced(member_id):
            raise FencedMemberError(member_id)
        member = GroupMember(self, member_id, process)
        self.members[member_id] = _MemberState(
            member_id, process, self.kernel.now, member
        )
        self.state.add_member(member_id)
        self.ensure_watchdog()
        self.kernel.spawn(
            self._heartbeat_loop(member_id),
            process=process,
            name=f"heartbeat:{member_id}",
        )
        self._request_rebalance("join")
        return member

    def leave(self, member_id: str) -> None:
        """Graceful departure (still fences, still triggers a rebalance)."""
        if member_id in self.members or self.state.is_member(member_id):
            self._evict(member_id, reason="leave")

    def expel(self, member_id: str, reason: str = "expelled") -> None:
        """Administrative eviction of a *live* member.

        The control plane uses this when it has out-of-band evidence a
        member must go -- e.g. its partition lease expired because the
        hosting worker is wedged -- rather than waiting for the session
        watchdog to notice silence. Same fence + rebalance as any eviction.
        """
        if member_id in self.members or self.state.is_member(member_id):
            self._evict(member_id, reason=reason)

    def heartbeat(self, member_id: str) -> None:
        state = self.members.get(member_id)
        if state is not None:
            state.last_heartbeat = self.kernel.now

    def on_generation(
        self, listener: Callable[[GenerationInfo], None]
    ) -> None:
        self._generation_listeners.append(listener)

    # ------------------------------------------------------------------
    # heartbeats and the eviction watchdog
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self, member_id: str) -> None:
        interval = self.broker.config.heartbeat_interval
        while member_id in self.members:
            self.heartbeat(member_id)
            await self.kernel.sleep(interval)

    def ensure_watchdog(self) -> None:
        """Start this view's watchdog task (idempotent).

        Joining starts it implicitly; a view that hosts no members but must
        still observe foreign generations (the cluster control plane) calls
        this directly.
        """
        if self._watchdog_started:
            return
        self._watchdog_started = True
        self.kernel.spawn(
            self._watchdog_loop(), name=f"watchdog:{self.group_id}"
        )

    async def _watchdog_loop(self) -> None:
        config = self.broker.config
        while not self._closed:
            await self.kernel.sleep(config.watchdog_interval)
            if self._closed:
                return
            now = self.kernel.now
            expired = [
                state.member_id
                for state in self.members.values()
                if now - state.last_heartbeat > config.session_timeout
            ]
            for member_id in expired:
                self._evict(member_id, reason="failure")
            self._observe_state()

    def _evict(self, member_id: str, reason: str) -> None:
        """Remove and fence a member, then trigger the consensus phase."""
        self.members.pop(member_id, None)
        self.state.remove_member(member_id)
        self.broker.fence(member_id)
        self._request_rebalance(reason)

    # ------------------------------------------------------------------
    # state observation (how a view learns about foreign generations)
    # ------------------------------------------------------------------
    def _observe_state(self) -> None:
        """Deliver generations and unpauses decided by *other* views.

        This is the cross-loop propagation path: a view that neither won
        nor raced the rebalance sees the bump here -- polled from the shared
        state, not pushed by another view's callback.
        """
        if not self._rebalancing:
            info = self.state.last_info
            if info is not None and info.generation > self._seen_generation:
                self._observe_generation(info)
        if self._resume_waiters and not self.state.paused:
            self._stamp_resumed(self.state.generation)
            self._wake_resume_waiters()

    def _observe_generation(self, info: GenerationInfo) -> None:
        """Record and deliver one new generation on this view."""
        self._seen_generation = info.generation
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

    # ------------------------------------------------------------------
    # rebalance (the paper's consensus phase)
    # ------------------------------------------------------------------
    def _request_rebalance(self, reason: str) -> None:
        self._pause()
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
            if not self._dirty:
                break
        if self._closed:
            return
        info: GenerationInfo | None = None
        while info is None:
            expected = self.state.generation
            current = set(self.state.member_ids())
            if self.state.cas_generation(expected, expected + 1):
                info = self._publish_generation(expected + 1, current)
            else:
                # Another view's rebalance won the bump. If its outcome
                # already covers the current membership (our joiners landed
                # before its snapshot), adopt it; otherwise retry the CAS
                # for a generation of our own.
                latest = self.state.last_info
                if (
                    latest is not None
                    and latest.generation == self.state.generation
                    and set(latest.members) == set(self.state.member_ids())
                ):
                    info = latest
        self._rebalancing = False
        self._reasons = []
        self._trigger_time = None
        if info.generation > self._seen_generation:
            self._observe_generation(info)

    def _publish_generation(
        self, generation: int, current: set[str]
    ) -> GenerationInfo:
        """Winner path: compute the membership delta and publish the info."""
        previous = self.state.members_at_generation
        failed = tuple(sorted(previous - current))
        joined = tuple(sorted(current - previous))
        self.state.members_at_generation = frozenset(current)
        if "failure" in self._reasons:
            reason = "failure"
        else:
            reason = self._reasons[0] if self._reasons else "join"
        if self._trigger_time is not None:
            triggered_at = self._trigger_time
        else:
            triggered_at = self.kernel.now
        ordered = tuple(sorted(current))
        info = GenerationInfo(
            generation=generation,
            members=ordered,
            leader=ordered[0] if ordered else None,
            failed=failed,
            joined=joined,
            reason=reason,
            triggered_at=triggered_at,
            completed_at=self.kernel.now,
        )
        self.state.last_info = info
        return info

    # ------------------------------------------------------------------
    # pause gate
    # ------------------------------------------------------------------
    def _pause(self) -> None:
        self.state.paused = True

    def resume(self, generation: int) -> None:
        """Lift the pause for ``generation``; stale resumes are ignored.

        Called by the reconciliation leader once recovery completes. If a new
        failure arrived meanwhile, ``generation`` is stale and the newer
        generation's leader is responsible for resuming.
        """
        if generation != self.state.generation or self._rebalancing:
            return
        if not self.state.paused:
            return
        self.state.paused = False
        self._stamp_resumed(generation)
        self._wake_resume_waiters()

    def _stamp_resumed(self, generation: int) -> None:
        for record in reversed(self.history):
            if record.generation == generation:
                if record.resumed_at is None:
                    record.resumed_at = self.kernel.now
                break

    def _wake_resume_waiters(self) -> None:
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

    def _check_fenced(self) -> None:
        if self.broker.is_fenced(self.member_id):
            raise FencedMemberError(self.member_id)

    async def send(self, partition_name: str, value: Any) -> Record:
        """Durably append ``value`` to another member's queue.

        Raises :class:`StaleRouteError` if the target member left the group
        while the send was in flight (its queue is being reconciled); the
        sender must re-resolve the destination and retry. The check happens
        at append time, so a raised send appended nothing.
        """
        if self.coordinator.paused:
            await self.coordinator.wait_unpaused()
        self._check_fenced()
        try:
            return await self.broker.produce(
                self.topic_name,
                partition_name,
                value,
                self.member_id,
                guard=lambda: self.coordinator.is_member(partition_name),
            )
        except FencedMemberError:
            raise
        except MQError:
            raise StaleRouteError(partition_name) from None

    async def send_batch(
        self, entries: list[tuple[str, Any]]
    ) -> list[Record | StaleRouteError]:
        """Durably append a batch of messages in one produce round trip.

        ``entries`` is a list of ``(partition_name, value)``. The returned
        list is aligned with ``entries``: the appended :class:`Record` on
        success, or a :class:`StaleRouteError` for entries whose target
        member left the group while the send was in flight (those appended
        nothing and must be re-routed individually -- the rest of the batch
        still landed). Guards are evaluated at append time, per partition.
        A fenced or stale-epoch sender raises :class:`FencedMemberError`
        for the whole batch; nothing is appended.
        """
        if self.coordinator.paused:
            await self.coordinator.wait_unpaused()
        self._check_fenced()
        guards: dict[str, Callable[[], bool]] = {
            partition: (
                lambda p=partition: self.coordinator.is_member(p)  # type: ignore[misc]
            )
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

    async def send_transaction(
        self, entries: list[tuple[str, Any]]
    ) -> list[Record]:
        """Atomically append to several queues (see produce_transaction)."""
        if self.coordinator.paused:
            await self.coordinator.wait_unpaused()
        self._check_fenced()
        try:
            return await self.broker.produce_transaction(
                self.topic_name,
                entries,
                self.member_id,
                guard=lambda: all(
                    self.coordinator.is_member(partition)
                    or partition == self.member_id
                    for partition, _value in entries
                ),
            )
        except FencedMemberError:
            raise
        except MQError:
            raise StaleRouteError([p for p, _ in entries]) from None

    async def poll(self, max_records: int | None = None) -> list[Record]:
        """Block until records are available on this member's own queue.

        A long poll (module docstring): the member parks for free while
        nothing is past ``position``; every wake re-checks the pause gate and
        the fence, then one fetch delivers the batch a ``consume_latency``
        later. ``max_records`` bounds a batch; a backlog beyond it is fetched
        by the next call without parking.
        """
        broker, topic_name, member_id = self.broker, self.topic_name, self.member_id
        while True:
            if self.coordinator.paused:
                await self.coordinator.wait_unpaused()
            self._check_fenced()
            if broker.end_offset(topic_name, member_id) <= self.position:
                await broker.wait_for_append(topic_name, member_id)
                continue
            records = await broker.fetch(
                topic_name, member_id, self.position, member_id, max_records
            )
            if records:
                self.position = records[-1].offset + 1
                return records
            # The end offset is past ``position`` yet nothing came back:
            # retention expired the whole gap. Skip it, or the loop would
            # re-fetch it every ``consume_latency`` until the next append.
            self.position = broker.end_offset(topic_name, member_id)
