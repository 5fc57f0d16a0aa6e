"""Per-component transport: routing, the send outbox, and batched sending.

Every envelope a component emits -- requests from ``invoke``, tail-call
successors, responses and tell self-acks -- passes through this layer.
It resolves a destination partition (placement + live-incarnation lookup)
and appends the envelope to a per-component *outbox*, whose senders share
produce round trips by a carrier/rider protocol (the leader/follower shape
of a group commit), with no task of its own:

- the sender that finds the outbox idle is the *carrier*. It waits out
  :data:`SEND_LINGER` itself, cuts up to :data:`SEND_BATCH_MAX` envelopes
  from the outbox head (its own first) and takes them through a single
  ``GroupMember.send_batch`` produce round trip in its own frame;
- every sender that arrives meanwhile is a *rider*: it parks on a future the
  carrier of its batch resolves with that entry's outcome;
- a carrier that finds envelopes queued behind its batch promotes the rider
  now at the outbox head to carry the next batch (at once: only the first
  carrier lingers), else marks the outbox idle. One produce is in flight per
  component at a time and batches leave in FIFO order.

Semantics are those of the unbatched transport:

- a send only returns after the covering batch's produce ack, so callers
  still observe "durably queued" exactly when the broker acknowledged their
  record;
- fencing is checked at append time and rejects the whole batch -- every
  waiting sender observes :class:`FencedMemberError` and the component
  runs its fenced-exit path;
- a stale destination inside a batch fails only its own entries: the
  affected envelope is re-routed (placement invalidated, re-resolved,
  re-enqueued) while the rest of the batch lands;
- a payload the durable log refuses fails only its own sender: a refused
  batch appended nothing and is carried again entry by entry;
- tail calls remain a single record that atomically completes the current
  request while issuing the next one (Section 2.3);
- a response is one record in the caller's queue: it, or a superseding
  tail call, is the completion evidence reconciliation reads (Section 4.3).

The routing tables derived from group membership (which component names
are live, which member incarnation answers for a name) are memoized per
coordinator generation instead of being rebuilt on every attempt; the
generation listener invalidates them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.mq import FencedMemberError, StaleRouteError

if TYPE_CHECKING:
    from repro.core.envelope import Request, Response
    from repro.core.runtime import Component
    from repro.sim import SimFuture

__all__ = ["Router"]

#: How long the first sender into an idle outbox lingers collecting
#: envelopes before its produce round trip. Zero adds no simulated delay and
#: still coalesces every send enqueued in the same event-loop turn; a small
#: positive linger trades call latency for fewer round trips under fan-in.
#: Read on every carry, so a test may set it and restore it.
SEND_LINGER = 0.0
#: The most envelopes one produce round trip carries (at least 1).
SEND_BATCH_MAX = 64


class _OutboxEntry:
    """One queued envelope. Only a rider sets ``future``: the carrier of its
    batch resolves it with the entry's outcome, or with :data:`_PROMOTED`."""

    __slots__ = ("partition", "envelope", "future")

    future: SimFuture

    def __init__(self, partition: str, envelope: Any):
        self.partition = partition
        self.envelope = envelope


#: Resolves the future of the rider at the outbox head when the carrier ahead
#: of it is done: that rider carries the next batch.
_PROMOTED = object()


class Router:
    """Routing and batched sending for one component."""

    def __init__(self, component: "Component"):
        self.component = component
        self.kernel = component.kernel
        self.coordinator = component.coordinator
        self.trace = component.trace
        self._outbox: list[_OutboxEntry] = []
        #: A sender of this component is lingering or in a produce round trip.
        self._carrying = False
        # Membership-derived routing tables, memoized per generation.
        self._generation_seen = -1
        self._candidates: dict[str, list[str]] = {}
        self._incarnations: dict[str, str] | None = None
        # Evidence counters for the throughput benchmarks.
        self.batches_flushed = 0
        self.records_sent = 0
        self.largest_batch = 0

    @property
    def placement(self):
        """The component's placement service (built when it starts)."""
        return self.component.placement

    # ------------------------------------------------------------------
    # membership-derived routing tables (memoized per generation)
    # ------------------------------------------------------------------
    def invalidate_membership(self) -> None:
        """Flush the memoized tables (called on every new generation)."""
        self._generation_seen = self.coordinator.generation
        self._candidates.clear()
        self._incarnations = None

    def live_candidates(self, actor_type: str) -> list[str]:
        """Sorted live component names announcing ``actor_type``."""
        if self.coordinator.generation != self._generation_seen:
            self.invalidate_membership()
        cached = self._candidates.get(actor_type)
        if cached is None:
            names = {m.rsplit("#", 1)[0] for m in self.coordinator.member_ids()}
            component_types = self.component.app.component_types
            cached = self._candidates[actor_type] = sorted(
                name
                for name in names
                if actor_type in component_types.get(name, frozenset())
            )
        return cached

    def live_incarnation(self, component_name: str) -> str | None:
        """The live member id answering for a component name, if any."""
        if self.coordinator.generation != self._generation_seen:
            self.invalidate_membership()
        if self._incarnations is None:
            # One incarnation per name: a join expels the one it supersedes.
            self._incarnations = {
                member_id.rpartition("#")[0]: member_id
                for member_id in self.coordinator.member_ids()
            }
        return self._incarnations.get(component_name)

    @property
    def outbox_idle(self) -> bool:
        """No envelope waiting and no sender carrying (drain criterion)."""
        return not self._outbox and not self._carrying

    # ------------------------------------------------------------------
    # the send outbox
    # ------------------------------------------------------------------
    async def send_durable(self, partition: str, envelope: Any) -> int:
        """Durably append one envelope, in one produce round trip with every
        other send this component has queued by then (module docstring).

        Returns the appended record's offset after the covering batch's
        produce ack. Raises :class:`StaleRouteError` (this entry must be
        re-routed), the log's refusal of this entry, or a fence error (the
        component is dead). A zero :data:`SEND_LINGER` is still a sleep: it ends
        after everything already scheduled at this instant, so same-turn
        sends coalesce at no simulated cost.
        """
        outbox = self._outbox
        own = _OutboxEntry(partition, envelope)
        outbox.append(own)
        if self._carrying:
            own.future = self.kernel.create_future()
            outcome = await own.future
            if outcome is not _PROMOTED:
                return outcome
        else:
            self._carrying = True
            await self.kernel.sleep(SEND_LINGER)
        # Carrier (first, or promoted): ``own`` is at the outbox head.
        batch = outbox[:SEND_BATCH_MAX]
        del outbox[:SEND_BATCH_MAX]
        try:
            outcomes = await self._flush_batch(batch)
        except FencedMemberError as error:
            # Append-time fencing rejects whole batches: nothing was
            # appended, and this member can never send again. Fail every
            # waiting sender (their tasks run the fenced-exit path).
            for entry in batch[1:] + outbox:
                entry.future.set_exception(error)
            outbox.clear()
            self._carrying = False
            raise
        for entry, outcome in zip(batch[1:], outcomes[1:]):
            if isinstance(outcome, Exception):
                entry.future.set_exception(outcome)
            else:
                entry.future.set_result(outcome)
        if outbox:
            outbox[0].future.set_result(_PROMOTED)
        else:
            self._carrying = False
        outcome = outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    async def _flush_batch(
        self, batch: list[_OutboxEntry]
    ) -> Sequence[int | Exception]:
        """One produce round trip; outcomes aligned with ``batch``.

        An entry's outcome is its appended offset, or the exception that
        fails only its sender: a stale destination, or a payload the log
        refuses. Raises only what fails every sender -- a fence, or a
        component that died while its carrier (a task outside the
        component's process) waited.
        """
        component = self.component
        member = component.member
        assert member is not None  # only a started component has an outbox
        if not component.process.alive:
            raise FencedMemberError(component.member_id)
        self.batches_flushed += 1
        self.largest_batch = max(self.largest_batch, len(batch))
        try:
            if len(batch) == 1:
                # Singleton batches take the single-record produce path: same
                # round trip, same semantics, friendlier to fault injection.
                entry = batch[0]
                offset = await member.send(entry.partition, entry.envelope)
                self.records_sent += 1
                return [offset]
            outcomes = await member.send_batch(
                [(entry.partition, entry.envelope) for entry in batch]
            )
        except FencedMemberError:
            raise
        except Exception as error:  # noqa: BLE001 - settles the sender(s)
            if len(batch) == 1:
                return [error]
            # The log refused the batch and kept none of it (the broker rolls
            # a refused append back): carry it again entry by entry, so only
            # the offending sender fails.
            isolated: list[int | Exception] = []
            for entry in batch:
                isolated += await self._flush_batch([entry])
            return isolated
        self.records_sent += sum(type(outcome) is int for outcome in outcomes)
        return outcomes

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    async def route_request(self, request: "Request") -> None:
        """Resolve placement and durably enqueue; retries stale routes,
        each retry paced by the component's overload policy."""
        guard, placement = self.component.overload, self.component.placement
        if request.copy_epoch == 0 and request.attempts == 0:
            guard.first_attempt(self.kernel.now)
        attempt = 0
        while True:
            if self.coordinator.paused:
                await self.coordinator.wait_unpaused()
            candidates = self.live_candidates(request.actor.type)
            if not candidates:
                await guard.pace_unplaceable(attempt)
                attempt += 1
                continue
            target_name = await placement.resolve(request.actor, candidates)
            target_member = self.live_incarnation(target_name)
            if target_member is None:
                placement.invalidate_components({target_name})
                await guard.pace_retry(attempt)
                attempt += 1
                continue
            try:
                await self.send_durable(target_member, request)
            except StaleRouteError:
                placement.invalidate_components({target_name})
                await guard.pace_retry(attempt)
                attempt += 1
                continue
            if self.trace.enabled:
                self.trace.emit(
                    "request.sent",
                    request=request.request_id,
                    step=request.step,
                    actor=str(request.actor),
                    method=request.method,
                    target=target_member,
                    sender=self.component.member_id,
                    caller=request.return_address,
                )
            return

    # ------------------------------------------------------------------
    # response routing
    # ------------------------------------------------------------------
    async def send_response(self, request: "Request", response: "Response") -> None:
        """Route a response to the caller's queue; if the caller's component
        died, follow the caller actor's (re-assigned) placement instead.

        Tells self-acknowledge into the *executing* component's own queue
        (Section 4.1): the completion record then shares the fate (and the
        retention clock) of the request it completes.
        """
        member_id = self.component.member_id
        if not request.expects_reply:
            await self.send_durable(member_id, response)
            if self.trace.enabled:
                self.trace.emit(
                    "response.sent",
                    request=response.request_id,
                    target=member_id,
                    self_ack=True,
                )
            return
        if request.reply_to is None:
            return
        attempt = 0
        while True:
            target, resolved_name = await self._resolve_response_target(request)
            if target is None:
                # Root caller (external client) is gone: nobody to answer,
                # but the completion evidence must still reach a journal.
                # Self-acknowledge into the executing component's own queue
                # (the tell discipline): reconciliation -- including one
                # running after a cold restart, when per-component dedup
                # evidence is gone -- then sees the request as settled and
                # never re-runs it.
                await self.send_durable(member_id, response)
                self.trace.emit(
                    "response.dropped",
                    request=response.request_id,
                    self_ack=True,
                )
                return
            try:
                await self.send_durable(target, response)
            except StaleRouteError:
                # The resolved target died while the send was in flight:
                # drop the cached placement so the retry re-resolves instead
                # of spinning on the dead entry.
                if resolved_name is not None:
                    self.placement.invalidate_components({resolved_name})
                await self.component.overload.pace_retry(attempt)
                attempt += 1
                continue
            if self.trace.enabled:
                self.trace.emit(
                    "response.sent",
                    request=response.request_id,
                    target=target,
                    error=response.error,
                    cancelled=response.cancelled,
                )
            return

    async def _resolve_response_target(
        self, request: "Request"
    ) -> tuple[str | None, str | None]:
        """Where the response to ``request`` should go right now.

        Returns ``(target_member, resolved_component_name)``. The caller's
        own queue wins while its member incarnation is live; a dead
        caller's *actor* is re-resolved through placement (the response
        follows the re-assigned actor). ``(None, None)`` means the caller
        was a root external client that no longer exists -- the response
        has no destination and only its completion evidence matters. On a
        stale-route send failure the caller invalidates
        ``resolved_component_name`` and asks again.
        """
        attempt = 0
        while True:
            if self.coordinator.paused:
                await self.coordinator.wait_unpaused()
            # The reply-to liveness check is on the member incarnation
            # itself, not merely its component name.
            if self.coordinator.is_member(request.reply_to):
                return request.reply_to, None
            if request.caller_actor is None:
                return None, None
            candidates = self.live_candidates(request.caller_actor.type)
            if not candidates:
                await self.component.overload.pace_unplaceable(attempt)
                attempt += 1
                continue
            resolved_name = await self.placement.resolve(
                request.caller_actor, candidates
            )
            target = self.live_incarnation(resolved_name)
            if target is None:
                self.placement.invalidate_components({resolved_name})
                await self.component.overload.pace_retry(attempt)
                attempt += 1
                continue
            return target, resolved_name
