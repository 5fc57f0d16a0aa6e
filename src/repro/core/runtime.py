"""Application components: the paired app + runtime (sidecar) processes.

Each :class:`Component` owns one message queue (its partition), a consumer
loop that delivers responses to suspended callers and dispatches requests to
per-actor mailboxes, and a :class:`~repro.core.router.Router` transport that
resolves placements and batches every outgoing envelope through a send
outbox (Section 4.1). A component is one failure domain: killing it abandons
every in-flight method execution, exactly like the formal failure rule.

The retry-orchestration mechanics live here too:

- requests annotated with ``after_callee`` by reconciliation are *parked*
  until the callee's response (possibly synthetic) arrives -- the
  happen-before guarantee of Sections 2.2/3.4;
- execution of a nested call whose caller's component is dead is elided and
  answered with a synthetic response when cancellation is enabled
  (Section 4.4);
- tail calls atomically complete the current request while issuing the next
  one: a single produced message serves as both (Section 2.3).

Memory management lives in a per-component maintenance loop: instances idle
past ``idle_passivation_timeout`` are passivated (``Actor.deactivate``,
then eviction of the instance, its mailbox, and its state cache), and the
dedup evidence (settled ids, handled keys) is retention-clocked in step
with broker record expiry -- so a long-running component's footprint tracks
its working set, not its lifetime history.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Awaitable

from repro.core.actor import Actor
from repro.core.context import ActorContext
from repro.core.dispatcher import ActorMailbox
from repro.core.envelope import Request, Response, TailCall
from repro.core.errors import ActorMethodError, InvocationCancelled
from repro.core.overload import CircuitBreaker, DeadLetter, OverloadGuard, Unguarded
from repro.core.placement import PlacementService
from repro.core.refs import ActorRef
from repro.core.retention import RetentionSet
from repro.core.router import Router
from repro.core.state import ActorStateCache
from repro.kvstore import FencedClientError, PipelinedStoreClient
from repro.mq import FencedMemberError, GenerationInfo, GroupMember
from repro.persist import CodecError
from repro.sim import SimProcess, _sleep

if TYPE_CHECKING:
    from repro.core.app import KarApplication

__all__ = ["Component"]

_FENCE_ERRORS = (FencedMemberError, FencedClientError)


def _error_text(error: Exception) -> str:
    """How an exception travels in an error :class:`Response`."""
    return f"{type(error).__name__}: {error}"


class Component:
    """One application component (app process + paired runtime process)."""

    def __init__(
        self,
        app: "KarApplication",
        name: str,
        actor_types: tuple[str, ...],
        epoch: int,
        worker=None,
    ):
        self.app = app
        self.kernel = app.kernel
        self.config = app.config
        self.trace = app.trace
        self.broker = app.broker
        self.topic_name = app.topic_name
        self.name = name
        self.actor_types = frozenset(actor_types)
        self.epoch = epoch
        #: Hosting worker event loop (the event-loop cost horizon), or
        #: ``None``: a client component, or any component of an application
        #: without workers.
        self.worker = worker
        self.coordinator = app.coordinator
        # Interned: the member id names this incarnation in every request
        # header, fence set, placement entry, and journal frame.
        self.member_id = sys.intern(f"{name}#{epoch}")
        self.process = SimProcess(self.member_id)
        self.member: GroupMember | None = None  # joined in start()
        self.store_client = None
        self.placement: PlacementService | None = None
        self.router = Router(self)
        self._instances: dict[ActorRef, Actor] = {}
        self._mailboxes: dict[ActorRef, ActorMailbox] = {}
        self._pending_calls: dict[str, Any] = {}
        self._parked: dict[str, list[Request]] = {}
        # Completion evidence is retention-clocked, not kept forever: a
        # duplicate can only be minted from an unexpired broker record, so
        # evidence older than the retention horizon is garbage (swept by
        # the maintenance loop).
        self._settled: RetentionSet = RetentionSet()
        self._handled: RetentionSet = RetentionSet()
        # Per-resident-instance lifecycle bookkeeping (passivation) and
        # write-through state caches; all three evict together.
        self._state_caches: dict[ActorRef, ActorStateCache] = {}
        self._last_active: dict[ActorRef, float] = {}
        self.passivations = 0
        self._live_members: set[str] | None = None
        self.is_leader = False
        # Overload control (retry budgets, breakers, mailbox admission):
        # per-incarnation state, sharing the component's fate like dedup
        # evidence does.
        policy = OverloadGuard if app.config.overload_guard else Unguarded
        self.overload: OverloadGuard = policy(
            app.config, app.kernel, app._open_breakers
        )

    @property
    def alive(self) -> bool:
        return self.process.alive

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Component":
        # Claim the partition family before consuming it: acquiring at this
        # epoch fences any older incarnation still holding the lease (the
        # handoff fence between workers). The lease never expires; only a
        # later epoch takes it, and whether a worker still runs is its
        # heartbeat's business. A name has one incarnation in the
        # group: the superseded one leaves in the generation this join
        # makes, so reconciliation replays its stranded queue -- a tail
        # call's lock holder first -- before anything new reaches this one.
        superseded = self.broker.acquire_partition_lease(
            self.topic_name, self.name, self.member_id, self.epoch
        )
        if superseded is not None:
            self.coordinator.expel(superseded, reason="superseded")
        self.member = self.coordinator.join(self.member_id, self.process)
        # Same-turn store operations share one backend round trip; the
        # flusher lives on this component's failure domain.
        self.store_client = PipelinedStoreClient(
            self.app.store, self.member_id, process=self.process
        )
        self.placement = PlacementService(
            self.store_client, self.config.placement_cache
        )
        self.coordinator.on_generation(self._on_generation)
        self.kernel.spawn(
            self._consume_loop(), self.process, name=f"consume:{self.member_id}"
        )
        self.kernel.spawn(
            self._reminder_loop(), self.process, name=f"reminders:{self.member_id}"
        )
        self.kernel.spawn(
            self._maintenance_loop(),
            self.process,
            name=f"maintenance:{self.member_id}",
        )
        self.trace.emit("component.start", member=self.member_id)
        return self

    def fail(self) -> None:
        """Abrupt fail-stop of the paired app + runtime processes."""
        if self.process.alive:
            self.trace.emit("component.fail", member=self.member_id)
            self.process.kill()

    @property
    def quiescent(self) -> bool:
        """No frame executing, nothing queued, nothing awaiting transport."""
        return (
            all(mailbox.idle for mailbox in self._mailboxes.values())
            and not self._pending_calls
            and not self._parked
            and self.router.outbox_idle
        )

    async def drain(self, timeout: float) -> bool:
        """Graceful-handoff step one: wait for in-flight work to finish.

        Polls until the component is quiescent or ``timeout`` simulated
        seconds pass; returns whether quiescence was reached. A timed-out
        drain is not an error -- the caller proceeds to fence the old
        incarnation and reconciliation recovers whatever was cut off, the
        same as a crash (that equivalence is exactly what the rebalance
        edge tests pin down).
        """
        deadline = self.kernel.now + timeout
        while self.kernel.now < deadline:
            if self.quiescent:
                return True
            await self.kernel.sleep(0.01)
        return self.quiescent

    def stop(self) -> None:
        """Graceful departure: leave the group (which fences this member),
        then terminate the paired processes. Unlike :meth:`fail`, the
        group learns immediately instead of waiting out a session timeout."""
        if not self.process.alive:
            return
        self.trace.emit("component.stop", member=self.member_id)
        self.coordinator.leave(self.member_id)
        if self.process.alive:
            self.process.kill()

    def _suicide(self) -> None:
        """We were deemed failed (fenced) while still running: terminate.

        This is the paired-process termination of Section 4.1 -- a fenced
        zombie must stop rather than keep computing with stale authority.
        """
        if self.process.alive:
            self.trace.emit("component.fenced_exit", member=self.member_id)
            self.process.kill()

    # ------------------------------------------------------------------
    # invocation entry point (used by ActorContext and external clients)
    # ------------------------------------------------------------------
    async def invoke(
        self,
        caller: Request | None,
        ref: ActorRef,
        method: str,
        args: tuple,
        expects_reply: bool = True,
    ) -> Any:
        """Issue an actor invocation from this component.

        ``caller`` is the request of the invoking method for nested calls
        (carrying its id and ancestry), or ``None`` for root invocations from
        external clients. Blocking calls await the response; tells return
        once the request is durably queued.
        """
        # The app -> sidecar hop and the sidecar's own per-invocation work
        # are back to back with nothing observable between them, so both are
        # sampled here and slept as one timer: same simulated time per call,
        # one kernel event and one task resume fewer.
        # A fixed latency is read, not sampled: it draws nothing either way.
        config = self.config
        hop = config.sidecar_latency.fixed
        if hop is None:
            hop = config.sidecar_latency.sample(self.kernel.rng)
        work = config.invoke_overhead.fixed
        if work is None:
            work = config.invoke_overhead.sample(self.kernel.rng)
        await _sleep(hop + work)
        request_id = self.app.ids.fresh()
        if expects_reply and caller is not None:
            return_address = caller.request_id
            ancestors = caller.ancestors + (caller.request_id,)
        else:
            # Tells are fresh roots: they queue like any other invocation
            # and never bypass the actor lock (Section 3.2's (tell) rule
            # attaches no return address).
            return_address = None
            ancestors = ()
        # Responses go to the caller's queue for calls, but to the *callee's
        # own* queue for tells (Section 4.1) -- the completion record must
        # live and die with the request it completes, or reconciliation
        # could re-run an already-completed tell after the evidence is gone.
        reply_to = self.member_id if expects_reply else None
        # Positional, as in ``Request.tail_successor``: matching fourteen
        # keywords to their parameters costs half as much again as the
        # build. ``test_value_types`` holds it equal to a keyword build over
        # ``fields(Request)``.
        request = Request(
            request_id,
            0,  # step
            ref,
            # One method name is shared by every request, dedup key, and
            # journal frame that mentions it; interning makes those copies
            # one object and the hot-path comparisons pointer checks.
            sys.intern(method),
            tuple(args),
            return_address,
            reply_to,
            caller.actor if caller is not None else None,  # caller_actor
            self.member_id,  # caller_member
            ancestors,
            False,  # tail_lock
            None,  # after_callee
            0,  # copy_epoch
            expects_reply,
        )
        future = None
        if expects_reply:
            future = self.kernel.create_future()
            self._pending_calls[request_id] = future
        try:
            await self.router.route_request(request)
        except CodecError as error:
            # The durable log refused the request (an argument it cannot
            # encode): nothing was queued, so no response will ever come.
            self._pending_calls.pop(request_id, None)
            raise ActorMethodError(_error_text(error)) from None
        if not expects_reply:
            await self._hop()  # ack back to the app process
            return None
        response: Response = await future
        await self._hop()  # sidecar -> app
        if response.cancelled:
            raise InvocationCancelled(request_id)
        if response.error is not None:
            raise ActorMethodError(response.error)
        return response.value

    # ------------------------------------------------------------------
    # consumer
    # ------------------------------------------------------------------
    async def _consume_loop(self) -> None:
        try:
            while True:
                records = await self.member.poll()
                for record in records:
                    envelope = record.value
                    if isinstance(envelope, Response):
                        self._handle_response(envelope)
                    elif isinstance(envelope, Request):
                        self._handle_request(envelope)
        except _FENCE_ERRORS:
            self._suicide()

    def _handle_response(self, response: Response) -> None:
        if self._settled.observe(response.request_id, self.kernel.now):
            # Late duplicate: the caller already observed an outcome for
            # this id (e.g. a synthetic cancellation raced the real
            # response). Never resolve a pending future for a settled id --
            # the first outcome is the one the caller acted on.
            self.trace.emit("response.duplicate", request=response.request_id)
        else:
            future = self._pending_calls.pop(response.request_id, None)
            if future is not None and not future.done():
                future.set_result(response)
        # Happen-before: release any retry parked on this callee.
        for parked in self._parked.pop(response.request_id, ()):
            self.trace.emit(
                "request.unparked",
                request=parked.request_id,
                after_callee=response.request_id,
            )
            self._admit(parked)

    def _handle_request(self, request: Request) -> None:
        # ``request.dedup_key``, built once.
        dedup_key = (request.request_id, request.step)
        if dedup_key in self._handled:
            # A reconciliation restart copied this request twice (Section
            # 4.3: "request messages already copied ... are skipped").
            # Observing the duplicate also refreshes the evidence's
            # retention stamp: the copy proves an unexpired record still
            # exists that could be copied again.
            self._handled.observe(dedup_key, self.kernel.now)
            self.trace.emit(
                "request.duplicate", request=request.request_id, step=request.step
            )
            return
        breaker = self.overload.breaker_diverts(request, self.kernel.now)
        if breaker is not None:
            # Diverted to the parking lot *without* being marked handled:
            # the request has not executed, and its eventual replay must be
            # admitted here. Exactly-once is preserved because the one real
            # execution happens at replay, deduplicated like any
            # reconciliation copy.
            self._park_dead_letter(request, "breaker_open", breaker)
            return
        self._handled.observe(dedup_key, self.kernel.now)
        if (
            request.after_callee is not None
            and request.after_callee not in self._settled
        ):
            # The retried caller must wait for its prior callee to settle
            # (the oblique dashed line of Figure 1, scenarios 4-7).
            self.trace.emit(
                "request.parked",
                request=request.request_id,
                after_callee=request.after_callee,
            )
            self._parked.setdefault(request.after_callee, []).append(request)
            return
        self._admit(request)

    def _admit(self, request: Request) -> None:
        mailbox = self._mailboxes.get(request.actor)
        if mailbox is None:
            mailbox = self._mailboxes[request.actor] = ActorMailbox(
                self.overload.mailbox_capacity
            )
        self._last_active[request.actor] = self.kernel.now
        if mailbox.try_admit(request):
            self._spawn_executor(request)
        else:
            self.overload.observe_pending(len(mailbox.pending))
            for shed in mailbox.shed_overflow():
                # Admission control: the oldest queued retries go back to
                # the budget-paced backoff path instead of growing the
                # queue without bound. First attempts are never shed.
                self.trace.emit(
                    "mailbox.shed",
                    request=shed.request_id,
                    step=shed.step,
                    actor=str(shed.actor),
                    pending=len(mailbox.pending),
                )
                self.kernel.spawn(
                    self._requeue_shed(shed),
                    self.process,
                    name=f"shed:{shed.request_id}.{shed.step}@{self.member_id}",
                )

    async def _requeue_shed(self, request: Request) -> None:
        """Re-admit a shed retry after budget-paced jittered backoff.

        The request was already marked handled in ``_handle_request``, so
        re-admission goes straight to ``_admit`` (not back through dedup).
        Repeat sheds of the same request back off further.
        """
        guard = self.overload
        attempt = guard.note_shed(request.dedup_key)
        await guard.pace_retry(attempt)
        guard.shed_requeues += 1
        self._admit(request)

    # ------------------------------------------------------------------
    # dead-letter parking (breaker diverts)
    # ------------------------------------------------------------------
    def _park_dead_letter(
        self, request: Request, reason: str, breaker: CircuitBreaker
    ) -> None:
        """Write a diverted request to the durable parking-lot topic with
        its full evidence: the redelivery timestamps it accumulated and the
        recent failures that tripped (or keep open) the breaker."""
        history = tuple(
            (at, "redelivered by reconciliation") for at in request.attempt_log
        ) + tuple(breaker.recent_failures)
        letter = DeadLetter(
            request=request,
            reason=reason,
            parked_at=self.kernel.now,
            attempts=request.attempts,
            failure_history=history,
            parked_by=self.member_id,
        )
        self.overload.parked += 1
        self.trace.emit(
            "deadletter.parked",
            request=request.request_id,
            step=request.step,
            actor=str(request.actor),
            method=request.method,
            reason=reason,
            member=self.member_id,
        )
        self.kernel.spawn(
            self._produce_dead_letter(letter),
            self.process,
            name=f"park:{request.request_id}.{request.step}@{self.member_id}",
        )

    async def _produce_dead_letter(self, letter: DeadLetter) -> None:
        try:
            await self.app.park_dead_letter(letter, self.member_id)
        except _FENCE_ERRORS:
            self._suicide()

    def _spawn_executor(self, request: Request) -> None:
        self.kernel.spawn(
            self._execute(request),
            self.process,
            name=f"exec:{request.request_id}.{request.step}@{self.member_id}",
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _execute(self, request: Request) -> None:
        try:
            if self.worker is not None:
                # Event-loop contention: executions hosted on one worker
                # serialize on its busy horizon (no-op at zero cost). The
                # component name attributes the charge to the load plane.
                await self.worker.loop.charge(self.name)
            if self.overload._shed_attempts:  # only a shed request has one
                self.overload.clear_shed(request.dedup_key)
            kind, payload = await self._run_method(request)
            self._record_outcome(request, kind, payload)
            await self._hop()  # app -> sidecar with the outcome
            tail_to_self = False
            if kind == "tail":
                # One message atomically completes this request and issues
                # the next one (Section 2.3).
                try:
                    await self.router.route_request(payload)
                except CodecError as error:
                    # The durable log refused the successor: the chain ends
                    # here, as this request's error result.
                    kind, payload = "error", _error_text(error)
                else:
                    tail_to_self = payload.tail_lock
                    if self.trace.enabled:
                        self.trace.emit(
                            "invoke.end",
                            request=request.request_id,
                            step=request.step,
                            actor=str(request.actor),
                            method=request.method,
                            outcome="tail",
                            tail_to_self=tail_to_self,
                            member=self.member_id,
                        )
            if kind != "tail":
                if kind == "value":
                    response = Response(request.request_id, value=payload)
                elif kind == "error":
                    response = Response(request.request_id, error=payload)
                else:  # cancelled
                    response = Response(request.request_id, cancelled=True)
                try:
                    await self.router.send_response(request, response)
                except CodecError as error:
                    # A result the durable log cannot encode: answer with the
                    # refusal, so the caller returns and the frame finishes.
                    kind = "error"
                    response = Response(request.request_id, error=_error_text(error))
                    await self.router.send_response(request, response)
                if self.trace.enabled:
                    self.trace.emit(
                        "invoke.end",
                        request=request.request_id,
                        step=request.step,
                        actor=str(request.actor),
                        method=request.method,
                        outcome=kind,
                        member=self.member_id,
                    )
            self._finish_frame(request, tail_to_self)
        except _FENCE_ERRORS:
            self._suicide()

    def _record_outcome(self, request: Request, kind: str, payload: Any) -> None:
        """Feed the execution outcome to the circuit breaker for this
        (actor type, method). "cancelled" is neutral: an elided invocation
        says nothing about the method's health."""
        now = self.kernel.now
        if kind == "error":
            transition = self.overload.record_failure(request, str(payload), now)
        elif kind in ("value", "tail"):
            transition = self.overload.record_success(request, now)
        else:
            return
        if transition is not None:
            self.trace.emit(
                "breaker.transition",
                actor_type=request.actor.type,
                method=request.method,
                transition=transition,
                member=self.member_id,
            )

    async def _run_method(self, request: Request) -> tuple[str, Any]:
        if self._should_elide(request):
            self.trace.emit(
                "invoke.elided",
                request=request.request_id,
                actor=str(request.actor),
                method=request.method,
                caller_member=request.caller_member,
            )
            return ("cancelled", None)
        instance = self._instances.get(request.actor)
        ctx = ActorContext(self, request)
        if instance is None:
            try:
                actor_class = self.app.registry.resolve(request.actor.type)
            except Exception as error:  # noqa: BLE001 - app boundary
                return ("error", _error_text(error))
            instance = actor_class()
            instance.ref = request.actor
            self._instances[request.actor] = instance
            self.trace.emit(
                "actor.activate", actor=str(request.actor), member=self.member_id
            )
            try:
                await instance.activate(ctx)
            except _FENCE_ERRORS:
                raise
            except Exception as error:  # noqa: BLE001 - app boundary
                del self._instances[request.actor]
                self._state_caches.pop(request.actor, None)
                return ("error", _error_text(error))
        await self._hop()  # sidecar -> app dispatch
        if self.trace.enabled:
            self.trace.emit(
                "invoke.start",
                request=request.request_id,
                step=request.step,
                actor=str(request.actor),
                method=request.method,
                member=self.member_id,
                copy_epoch=request.copy_epoch,
            )
        try:
            method = self.app.registry.method(instance, request.method)
        except Exception as error:  # noqa: BLE001 - app boundary
            return ("error", _error_text(error))
        try:
            result = await method(ctx, *request.args)
        except _FENCE_ERRORS:
            raise
        except Exception as error:  # noqa: BLE001 - app boundary
            self.trace.emit(
                "invoke.error",
                request=request.request_id,
                actor=str(request.actor),
                method=request.method,
                error=_error_text(error),
            )
            return ("error", _error_text(error))
        if isinstance(result, TailCall):
            successor = request.tail_successor(
                result.actor, result.method, result.args, request.actor
            )
            return ("tail", successor)
        return ("value", result)

    def _should_elide(self, request: Request) -> bool:
        """Cancellation (Section 4.4): skip a nested call whose caller's
        component is absent from the live list of the latest reconciliation."""
        if not self.config.cancellation:
            return False
        if request.return_address is None or request.caller_member is None:
            return False  # only nested calls are cancellable (Section 3.6)
        if self._live_members is None:
            return False  # no generation observed yet: presume alive
        return request.caller_member not in self._live_members

    def _finish_frame(self, request: Request, tail_to_self: bool) -> None:
        self._last_active[request.actor] = self.kernel.now
        mailbox = self._mailboxes.get(request.actor)
        if mailbox is None:
            return
        successor = mailbox.complete_frame(request, tail_to_self)
        if successor is not None:
            self._spawn_executor(successor)

    # ------------------------------------------------------------------
    # failure recovery hooks
    # ------------------------------------------------------------------
    def _on_generation(self, info: GenerationInfo) -> None:
        if not self.process.alive or self.member is None:
            # A restart is a new incarnation: still subscribed, this dead one
            # and everything it holds would live as long as the coordinator.
            self.coordinator.off_generation(self._on_generation)
            return
        if self.member_id not in info.members:
            self._suicide()
            return
        self.router.invalidate_membership()
        self._live_members = set(info.members)
        failed_names = {m.rsplit("#", 1)[0] for m in info.failed}
        if failed_names:
            self.placement.invalidate_components(failed_names)
        self.is_leader = info.leader == self.member_id
        if self.is_leader:
            self.kernel.spawn(
                self._lead_reconciliation(info),
                self.process,
                name=f"reconcile:{self.member_id}",
            )

    async def _lead_reconciliation(self, info: GenerationInfo) -> None:
        from repro.core.reconciler import Reconciler

        try:
            await Reconciler(self).run(info)
        except _FENCE_ERRORS:
            self._suicide()

    # ------------------------------------------------------------------
    # reminders (leader-run daemon; see repro.core.reminders)
    # ------------------------------------------------------------------
    async def _reminder_loop(self) -> None:
        from repro.core.reminders import deliver_due_reminders

        try:
            while True:
                await self.kernel.sleep(self.config.reminder_tick)
                if not self.is_leader or not self.app.reminders_in_use:
                    continue
                await deliver_due_reminders(self)
        except _FENCE_ERRORS:
            self._suicide()

    # ------------------------------------------------------------------
    # actor lifecycle & memory management (idle passivation, dedup GC)
    # ------------------------------------------------------------------
    def state_cache_for(self, ref: ActorRef) -> ActorStateCache:
        """Write-through state cache for a *resident* instance's own state
        (``ctx.state``); never used for ``state_of``."""
        cache = self._state_caches.get(ref)
        if cache is None:
            cache = self._state_caches[ref] = ActorStateCache()
        return cache

    def existing_state_cache(self, ref: ActorRef) -> ActorStateCache | None:
        """Cache for ``ref`` only if one is already resident here.

        ``state_of`` views share the resident instance's cache so their
        writes stay coherent with it, but must not mint cache entries for
        actors hosted elsewhere (no single-writer guarantee there).
        """
        return self._state_caches.get(ref)

    async def _maintenance_loop(self) -> None:
        """Periodic housekeeping: expire dedup evidence in step with broker
        record expiry, and passivate actors idle past the configured
        timeout. Both keep a long-running component's memory bounded by its
        *working set* instead of its lifetime history."""
        try:
            while True:
                await self.kernel.sleep(self.config.maintenance_interval)
                self._sweep_dedup_evidence()
                if self.config.idle_passivation_timeout is not None:
                    await self._sweep_idle_actors()
        except _FENCE_ERRORS:
            self._suicide()

    def _sweep_dedup_evidence(self) -> None:
        """The paper's retention rule: dedup evidence only needs to outlive
        the unexpired messages that could duplicate it, so the sweep cutoff
        tracks the broker retention horizon (plus delivery-lag slack)."""
        horizon = (
            self.config.broker.retention_seconds
            + self.config.dedup_retention_slack
        )
        cutoff = self.kernel.now - horizon
        if cutoff <= 0.0:
            return
        swept = self._settled.sweep(cutoff) + self._handled.sweep(cutoff)
        if swept:
            self.trace.emit(
                "dedup.swept",
                member=self.member_id,
                swept=swept,
                settled=len(self._settled),
                handled=len(self._handled),
            )

    async def _sweep_idle_actors(self) -> None:
        timeout = self.config.idle_passivation_timeout
        now = self.kernel.now
        idle = [
            ref
            for ref, mailbox in self._mailboxes.items()
            if mailbox.idle
            and now - self._last_active.get(ref, 0.0) >= timeout
        ]
        for ref in idle:
            # Passivations await (hops, the deactivate hook), so an actor
            # later in the sweep may have served requests meanwhile:
            # re-check its idle clock at its turn, not the sweep snapshot.
            if self.kernel.now - self._last_active.get(ref, 0.0) < timeout:
                continue
            await self._passivate(ref)

    async def _passivate(self, ref: ActorRef) -> None:
        """Deactivate and evict one idle instance (with its mailbox, state
        cache, and activity stamp). The mailbox lock is held with a token
        no request can match, so a request arriving mid-deactivate queues
        behind the teardown and transparently re-activates the actor."""
        mailbox = self._mailboxes.get(ref)
        if mailbox is None:
            return
        token = f"passivate:{self.app.ids.fresh()}"
        if not mailbox.begin_passivation(token):
            return
        instance = self._instances.get(ref)
        deactivate_error = None
        if instance is not None:
            request = Request(
                request_id=token,
                step=0,
                actor=ref,
                method="deactivate",
                args=(),
                return_address=None,
                reply_to=None,
                caller_actor=None,
                caller_member=self.member_id,
                expects_reply=False,
            )
            ctx = ActorContext(self, request)
            await self._hop()  # sidecar -> app: run the deactivate hook
            try:
                await instance.deactivate(ctx)
            except _FENCE_ERRORS:
                # Fenced mid-deactivate: the component is dead and recovery
                # owns the actor now; nothing to release.
                raise
            except Exception as error:  # noqa: BLE001 - app boundary
                deactivate_error = _error_text(error)
            await self._hop()  # app -> sidecar
        self._instances.pop(ref, None)
        self._state_caches.pop(ref, None)
        self._last_active.pop(ref, None)
        self.passivations += 1
        self.trace.emit(
            "actor.passivate",
            actor=str(ref),
            member=self.member_id,
            error=deactivate_error,
        )
        successor = mailbox.end_passivation(token)
        if successor is not None:
            # A request arrived mid-deactivate: it owns the lock now and
            # will re-activate the actor on execution.
            self._spawn_executor(successor)
        elif self._mailboxes.get(ref) is mailbox and mailbox.idle:
            del self._mailboxes[ref]

    # ------------------------------------------------------------------
    # latency charges (out-of-process runtime architecture, Section 4.1)
    # ------------------------------------------------------------------
    def _hop(self) -> Awaitable[None]:
        latency = self.config.sidecar_latency
        delay = latency.fixed
        return _sleep(latency.sample(self.kernel.rng) if delay is None else delay)

    def __repr__(self) -> str:
        state = "alive" if self.process.alive else "dead"
        return f"Component({self.member_id}, {state})"
