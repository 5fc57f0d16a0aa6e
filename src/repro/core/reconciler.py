"""Reconciliation: the leader-driven recovery algorithm of Section 4.3.

When membership changes, the elected leader:

1. catalogs all unexpired messages across the application topic;
2. discards requests with a matching response or a superseding tail call
   (a later request with the same id);
3. identifies pending requests stranded in failed components' queues,
   re-places their actors (CAS on the store), and copies the requests to the
   chosen live components -- moving tail-calls-to-self to the front, per the
   formal semantics' (tail-self) rule;
4. transposes the callee->caller map: a copied request that had a live
   nested call is annotated with the callee's id, so the receiving runtime
   postpones the retry until the callee's response arrives (happen-before);
5. fences failed components at the store (forceful disconnection) and
   discards their queues;
6. resumes the group.

A failure during reconciliation kills the leader, which produces a new
generation whose leader simply restarts reconciliation; copies are
idempotent (consumers deduplicate by request id and step).
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.core.envelope import Request, envelope_id
from repro.core.overload import DEAD_LETTER_PARTITION, DeadLetter
from repro.mq import GenerationInfo, RecordRun
from repro.mq.records import ReplayedValue

if TYPE_CHECKING:
    from repro.core.runtime import Component

__all__ = ["Reconciler", "UNPLACED_PARTITION"]

#: Queue for pending requests whose actor type has no live host; revisited
#: every reconciliation ("KAR queues requests to unavailable types
#: separately, revisiting this queue when new components are added").
UNPLACED_PARTITION = "_unplaced"


class Reconciler:
    """One reconciliation attempt, run on the leader component's process."""

    def __init__(self, component: "Component"):
        self.component = component
        self.app = component.app
        self.kernel = component.kernel
        self.config = component.config

    async def run(self, info: GenerationInfo) -> None:
        component = self.component
        coordinator = component.coordinator
        topic = self.app.broker.topic(self.app.topic_name)
        trace = component.trace

        # The catalog of unexpired messages, one snapshot per partition:
        # nothing below needs them in one global order.
        now = self.kernel.now
        catalog = []
        cataloged = 0
        for partition in topic.partitions.values():
            run = partition.unexpired(now)
            catalog.append(run)
            cataloged += len(run.values)
        scan_cost = self.config.reconcile_base.sample(
            self.kernel.rng
        ) + self.config.reconcile_per_message * cataloged
        trace.emit(
            "reconcile.start",
            generation=info.generation,
            leader=component.member_id,
            cataloged=cataloged,
            failed=list(info.failed),
        )
        await self.kernel.sleep(scan_cost)

        live_members = set(info.members)
        responses, latest_request, children = self.weigh(catalog, live_members)

        # Stranded = pending (no matching response) and the latest record
        # sits in a queue whose owner is no longer a group member.
        stranded = [
            (partition, request)
            for partition, request in latest_request.values()
            if partition not in live_members
        ]
        # Formal (tail-self) ordering: tail calls that own their actor's lock
        # recover first, then everything else in arrival order.
        stranded.sort(key=lambda item: (not item[1].tail_lock, item[1].request_id))

        # Redelivery cap (overload control): a stranded request that has
        # already been recovery-copied ``redelivery_limit`` times is a
        # poison-pill suspect -- park it in the dead-letter topic with its
        # attempt history instead of feeding the crash-reconcile loop again.
        # Requests already parked (by a breaker or a prior sweep) are
        # skipped entirely: redelivery now belongs to the parking lot.
        limit = component.overload.redelivery_limit
        parked_index = (
            self.app.dead_letter_index() if limit is not None else frozenset()
        )
        parked: list[DeadLetter] = []

        copies: list[tuple[str, Request]] = []
        unplaced: list[Request] = []
        for _partition, request in stranded:
            if limit is not None:
                if request.dedup_key in parked_index:
                    trace.emit(
                        "reconcile.already_parked",
                        request=request.request_id,
                        step=request.step,
                    )
                    continue
                if request.attempts >= limit:
                    parked.append(
                        self._dead_letter(request, limit, info.generation)
                    )
                    continue
            candidates = component.router.live_candidates(request.actor.type)
            if not candidates:
                unplaced.append(request)
                continue
            target_name = await component.placement.resolve(
                request.actor, candidates
            )
            target_member = component.router.live_incarnation(target_name)
            if target_member is None:
                unplaced.append(request)
                continue
            if self.config.orchestrate_retries:
                after_callee = self._pending_callee(
                    request, children, responses
                )
            else:
                # At-least-once baseline (Figure 2b): redeliver immediately,
                # letting retries overlap live callees from prior attempts.
                after_callee = None
            copies.append(
                (
                    target_member,
                    request.recovery_copy(
                        info.generation, after_callee, self.kernel.now
                    ),
                )
            )

        await self.kernel.sleep(self.config.reconcile_per_copy * max(len(copies), 1))

        # Abort if a newer generation exists: its leader owns recovery now,
        # and we must not drop queues it still needs to catalog.
        if coordinator.generation != info.generation:
            trace.emit("reconcile.superseded", generation=info.generation)
            return

        # One batched internal produce per group: the copies (and the
        # rebuilt unplaced queue) hit the broker log as a single journal
        # write instead of one write+flush per stranded request.
        if copies:
            self.app.broker.produce_internal_batch(
                self.app.topic_name,
                [(target_member, request) for target_member, request in copies],
            )
        for target_member, request in copies:
            trace.emit(
                "reconcile.copy",
                request=request.request_id,
                step=request.step,
                target=target_member,
                after_callee=request.after_callee,
                caller=request.return_address,
            )

        # Park poison-pill suspects durably (their own topic, outside this
        # catalog). Idempotent across leader restarts: the parked_index
        # skip above makes a re-park a no-op next sweep, and replay dedups
        # by (id, step) regardless.
        if parked:
            self.app.broker.produce_internal_batch(
                self.app.dead_letter_topic,
                [(DEAD_LETTER_PARTITION, letter) for letter in parked],
            )
            component.overload.parked += len(parked)
        for letter in parked:
            trace.emit(
                "deadletter.parked",
                request=letter.request.request_id,
                step=letter.request.step,
                actor=str(letter.request.actor),
                method=letter.request.method,
                reason=letter.reason,
                attempts=letter.attempts,
                member=component.member_id,
            )

        # Rebuild the unplaced queue from scratch (idempotent on restart).
        topic.drop_partition(UNPLACED_PARTITION)
        if unplaced:
            self.app.broker.produce_internal_batch(
                self.app.topic_name,
                [(UNPLACED_PARTITION, request) for request in unplaced],
            )
        for request in unplaced:
            trace.emit(
                "reconcile.unplaced",
                request=request.request_id,
                actor_type=request.actor.type,
            )

        # Forcefully disconnect failed components from the store and every
        # registered external service. Dead queues are NOT discarded while
        # they still hold unexpired messages: responses and superseding tail
        # calls in them are the evidence that keeps later reconciliations
        # from re-running completed work (completed invocations are never
        # repeated). Retention expires them; empty queues are then dropped
        # ("discarded or flushed for later reuse", Section 4.3).
        dead_partitions = [
            partition
            for partition in list(topic.partitions)
            if partition not in live_members and partition != UNPLACED_PARTITION
        ]
        dropped = 0
        for partition in dead_partitions:
            self.app.store.fence(partition)
            self.app.broker.fence(partition)
            for service in self.app.external_services:
                service.fence(partition)
            remaining = topic.partition(partition).unexpired(self.kernel.now)
            if not remaining:
                topic.drop_partition(partition)
                dropped += 1

        trace.emit(
            "reconcile.end",
            generation=info.generation,
            copied=len(copies),
            unplaced=len(unplaced),
            parked=len(parked),
            dropped=dropped,
        )
        coordinator.resume(info.generation)

    @staticmethod
    def weigh(
        catalog: list[RecordRun], live_members: set[str]
    ) -> tuple[set[str], dict[str, tuple[str, Request]], dict[str, list[str]]]:
        """Weigh the catalog, one run of records per partition.

        Returns the ids with a response, each unsettled request id's best
        record as ``(partition, request)`` (see :meth:`_supersedes`), and
        each caller's unsettled children, oldest first.

        Pass 1 reads the columns, ids and steps only (a replayed record's
        are peeked from its frame bytes): no record object is built and a
        settled call's records are never decoded. Pass 2 decodes, per
        unsettled id, the records at its latest step: one, unless an
        equal-step copy rivals it. The stranded set and each caller's first
        unsettled child come out as they would if every record were decoded
        in the catalog's global order.
        """
        responses: set[str] = set()
        # Request id -> (timestamp, partition, offset, step, value) of each
        # of its records: its place in the global order, then its step.
        requests: dict[str, list[tuple[float, str, int, int, Any]]] = {}
        for run in catalog:
            partition = run.partition
            for offset, timestamp, value in zip(
                count(run.first_offset), run.timestamps, run.values
            ):
                key = envelope_id(value)
                if key is None:
                    continue
                if key[0]:
                    responses.add(key[1])
                    continue
                item = (timestamp, partition, offset, key[2], value)
                items = requests.get(key[1])
                if items is None:
                    requests[key[1]] = [item]
                else:
                    items.append(item)
        kept: list[tuple[tuple, str, str, Request]] = []
        for request_id, items in requests.items():
            if request_id in responses:
                continue
            items.sort()  # global order: no two records share a place
            latest = max(map(itemgetter(3), items))
            winner: tuple[str, Request] | None = None
            for item in items:
                if item[3] == latest:
                    value = item[4]
                    if type(value) is ReplayedValue:
                        value = value.value
                    if winner is None or Reconciler._supersedes(
                        item[1], value, *winner, live_members
                    ):
                        winner = (item[1], value)
            assert winner is not None
            kept.append((items[0][:3], request_id, *winner))
        # In the order of each request's first record: a caller's children
        # come out oldest first, as a merge of the whole catalog gives them
        # (``return_address`` is the same on every step of an id).
        kept.sort(key=itemgetter(0))
        latest_request: dict[str, tuple[str, Request]] = {}
        children: dict[str, list[str]] = {}
        for _first, request_id, partition, envelope in kept:
            latest_request[request_id] = (partition, envelope)
            if envelope.return_address is not None:
                children.setdefault(envelope.return_address, []).append(request_id)
        return responses, latest_request, children

    def _dead_letter(
        self, request: Request, limit: int, generation: int
    ) -> DeadLetter:
        now = self.kernel.now
        history = tuple(
            (at, f"recovery copy #{index + 1} after component failure")
            for index, at in enumerate(request.attempt_log)
        ) + ((now, f"redelivery limit {limit} reached; parked"),)
        return DeadLetter(
            request=request,
            reason="redelivery_limit",
            parked_at=now,
            attempts=request.attempts,
            failure_history=history,
            parked_by=f"reconciler:{self.component.member_id}@g{generation}",
        )

    @staticmethod
    def _supersedes(
        candidate_partition: str,
        candidate: Request,
        current_partition: str,
        current: Request,
        live_members: set[str],
    ) -> bool:
        """Whether ``candidate`` is the better record of its request id.

        A higher step always wins (a tail call supersedes the request it
        completes). At equal step: a copy in a live queue wins over one in
        a dead queue (the request is already in a survivor's hands and must
        not be copied again), and otherwise the *latest* recovery copy
        (highest copy epoch) wins -- its attempt history is the complete
        redelivery record, which the redelivery cap counts against.
        """
        if candidate.step != current.step:
            return candidate.step > current.step
        candidate_live = candidate_partition in live_members
        current_live = current_partition in live_members
        if candidate_live != current_live:
            return candidate_live
        return candidate.copy_epoch > current.copy_epoch

    @staticmethod
    def _pending_callee(
        request: Request,
        children: dict[str, list[str]],
        responses: set[str],
    ) -> str | None:
        """Transpose the callee->caller map (Section 4.3): if the stranded
        caller has a nested call without a response, the retry must wait for
        it. A KAR task has at most one live child (blocking nested calls)."""
        for child_id in children.get(request.request_id, ()):    # oldest first
            if child_id not in responses:
                return child_id
        return None
