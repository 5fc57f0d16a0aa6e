"""Top-level application wiring: broker + store + components + clients.

A :class:`KarApplication` owns the simulated infrastructure (one Kafka-like
broker, one Redis-like store, one consumer group per application) and the
set of components, and offers the external-client call surface plus failure
injection (kill / restart a component) used by tests and the benchmark
harnesses. There is one application type: how many worker event loops host
its components is the ``workers=`` argument (deployment, not type), and
everything worker-shaped lives in the :class:`~repro.core.cluster.
ControlPlane` the application holds as ``app.control``.

Persistence is pluggable (``KarConfig.persistence``): the store and the
broker log can live in memory (the default) or in durable files. On top of
that, the application supports a *cold restart*: :meth:`shutdown` abruptly
kills every component and discards all in-memory runtime state, and
:meth:`reopen` builds a brand-new application over the same backends --
topics, offsets, group generation, component epochs, placements, and actor
state all come back from the durable layer, and the first reconciliation
drives every unsettled call to completion (Section 4.3 run from bytes).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.actor import Actor, ActorRegistry
from repro.core.api import KarApi
from repro.core.cluster import ControlPlane, KarWorker
from repro.core.config import KarConfig
from repro.core.envelope import envelope_id
from repro.core.overload import DEAD_LETTER_PARTITION, DeadLetter, _OpenBreakers
from repro.core.refs import ActorRef
from repro.core.reminders import REMINDERS_KEY
from repro.core.runtime import Component
from repro.kvstore import KVStore, StoreBackend
from repro.mq import Broker, BrokerLog, GroupCoordinator
from repro.obs import GuaranteeMonitor
from repro.persist import build_persistence, reopen_persistence, wipe_persistence
from repro.sim import Kernel, TraceRecorder

__all__ = ["KarApplication"]


class _IdGenerator:
    """Monotonic, deterministic request ids, namespaced per boot.

    A cold restart cannot recover the in-memory counter, so ids carry the
    application's durable boot number instead: ids minted by different
    boots can never collide with the (id, step) dedup evidence and the
    response records still retained in the journals. The first boot keeps
    the bare historical format.
    """

    def __init__(self, prefix: str = "r"):
        self._prefix = prefix
        self._counter = 0

    def fresh(self) -> str:
        self._counter += 1
        return f"{self._prefix}{self._counter:06d}"


class KarApplication:
    """One KAR application: infrastructure, components, and clients.

    ``workers`` is how many worker event loops to start (``w0``, ``w1``, ..)
    or their ids; actor-hosting components are sharded across them. Every
    component, hosted or not, is a member of the one ``coordinator``.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: KarConfig | None = None,
        name: str = "app",
        *,
        workers: int | Sequence[str] = 0,
        store_backend: StoreBackend | None = None,
        broker_log: BrokerLog | None = None,
    ):
        self.kernel = kernel
        self.config = config or KarConfig()
        self.name = name
        self.topic_name = f"{name}-topic"
        # The dead-letter parking lot: its own topic, outside the
        # reconciliation catalog, the dead-queue sweeps, and the
        # retention-expiry read paths -- parked calls must outlive all
        # three. It is journal-mirrored like any topic, so the parking lot
        # survives a cold restart.
        self.dead_letter_topic = f"{name}-deadletters"
        self.dead_letters_replayed = 0
        if store_backend is None and broker_log is None:
            store_backend, broker_log = build_persistence(
                self.config.persistence, name
            )
        if store_backend is None or broker_log is None:
            raise ValueError(
                "store_backend and broker_log must be given together"
            )
        self.broker = Broker(kernel, self.config.broker, log=broker_log)
        self.store = KVStore(
            kernel, self.config.store_latency, backend=store_backend
        )
        # Attach-to-service semantics: whatever the durable layer retains
        # (nothing, for fresh backends) becomes this application's state.
        self.restored_records = self.broker.restore_from_log()
        self.boot = int(broker_log.get_meta(f"app:{name}:boot") or 0) + 1
        broker_log.set_meta(f"app:{name}:boot", self.boot)
        self.coordinator = GroupCoordinator(self.broker, name, self.topic_name)
        self.registry = ActorRegistry()
        self.trace = TraceRecorder(kernel)
        #: Theorem 3.1's trace clauses, checked on each event
        #: (``repro.obs.guarantee``); every boot shares the first one's.
        self.guarantee = GuaranteeMonitor(
            self.config.broker.retention_seconds + self.config.dedup_retention_slack
        )
        self.trace.subscribers.append(self.guarantee)
        self.ids = _IdGenerator("r" if self.boot == 1 else f"r{self.boot}.")
        self.components: dict[str, Component] = {}
        #: Open circuit breakers across every component's guard: admission
        #: scans the components only while this is non-zero.
        self._open_breakers = _OpenBreakers()
        self.component_types: dict[str, frozenset[str]] = {}
        self._epochs: dict[str, int] = self._restore_epochs()
        self._client: Component | None = None
        self._api: KarApi | None = None
        self._shutdown = False
        #: Gates the leader's reminder sweep. Read from the store, so a
        #: reminder persisted by an earlier boot still fires after a restart.
        self.reminders_in_use = bool(self.store.backend.hgetall(REMINDERS_KEY))
        self.external_services: list[Any] = []
        #: Serving-edge observability plane: the attached HTTP gateway's
        #: ``stats`` method (``repro.net.gateway``), surfaced as
        #: ``stats()["gateway"]``.
        self.gateway_snapshot: Callable[[], dict[str, Any]] | None = None
        if isinstance(workers, int):
            workers = tuple(f"w{index}" for index in range(workers))
        #: Worker lifecycle, component-to-worker assignment, handoffs and
        #: the placement controller; inert while there are no workers.
        self.control = ControlPlane(self, workers)

    # ------------------------------------------------------------------
    # persistence lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls,
        kernel: Kernel,
        config: KarConfig | None = None,
        name: str = "app",
        *,
        workers: int | Sequence[str] = 0,
    ) -> "KarApplication":
        """A guaranteed-clean application: any durable files left behind by
        a previous run under the same name are deleted first."""
        cfg = config or KarConfig()
        wipe_persistence(cfg.persistence, name)
        return cls(kernel, cfg, name, workers=workers)

    def shutdown(self) -> None:
        """Cold stop: abruptly kill every worker loop and component, and
        release the backends.

        Models the death of all application processes at once (a node or
        datacenter restart). Nothing is flushed gracefully beyond what the
        durable backends already acknowledged -- exactly the state a crash
        would leave behind.
        """
        if self._shutdown:
            return
        self._shutdown = True
        self.trace.emit("app.shutdown", name=self.name, boot=self.boot)
        self.control.stop()
        for component in self.components.values():
            if component.alive:
                component.process.kill()
        self.coordinator.close()
        self.broker.log.close()
        self.store.backend.close()

    def reopen(self) -> "KarApplication":
        """Build the next boot of this application over the same durable
        backends and with the same worker ids (shutting this one down first
        if still running).

        Memory backends carry over as live objects; durable backends are
        re-read from their files, as a brand-new process would. The caller
        re-registers nothing (the actor registry is code, and carries
        over) but must re-add components and :meth:`settle` -- the first
        reconciliation then replays the journals, re-places stranded
        requests, and completes every unsettled call.
        """
        self.shutdown()
        store_backend, broker_log = reopen_persistence(
            self.config.persistence, self.name, self.store.backend, self.broker.log
        )
        successor = KarApplication(
            self.kernel,
            self.config,
            self.name,
            workers=tuple(self.control.workers),
            store_backend=store_backend,
            broker_log=broker_log,
        )
        # What the durable backends do not carry: the actor registry (it is
        # code), whether tracing is on, and who listens to it -- the
        # guarantee monitor among them, so one monitor sees every boot.
        successor.registry = self.registry
        successor.trace.enabled = self.trace.enabled
        successor.trace.subscribers = self.trace.subscribers
        successor.guarantee = self.guarantee
        return successor

    def _restore_epochs(self) -> dict[str, int]:
        """Component epochs from log metadata: a reopened application must
        mint member ids strictly above every incarnation in the journal,
        or a new component would adopt a dead predecessor's queue."""
        prefix = f"app:{self.name}:epoch:"
        return {
            key[len(prefix):]: int(value)
            for key, value in self.broker.log.meta_items().items()
            if key.startswith(prefix)
        }

    def register_external_service(self, service: Any) -> Any:
        """Register a stateful service actors interact with directly.

        KAR requires *forceful disconnection* for every stateful service in
        use (Sections 1, 2.3): reconciliation fences failed components on
        each registered service, so their lingering operations cannot land.
        The service must expose ``fence(client_id)``.
        """
        self.external_services.append(service)
        return service

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def register_actor(self, actor_class: type[Actor], name: str | None = None) -> str:
        """Make an actor type available for hosting by components."""
        return self.registry.register(actor_class, name)

    def add_component(
        self,
        name: str,
        actor_types: tuple[str, ...] = (),
        *,
        worker: KarWorker | None = None,
    ) -> Component:
        """Create and start a component announcing the given actor types.

        ``worker`` pins the component to one worker event loop; left out,
        the control plane assigns one (see :meth:`_start_component`).
        """
        for actor_type in actor_types:
            if actor_type not in self.registry:
                raise ValueError(f"actor type {actor_type!r} is not registered")
        return self._start_component(name, tuple(actor_types), worker)

    def _start_component(
        self, name: str, types: tuple[str, ...], worker: KarWorker | None
    ) -> Component:
        """Start the next incarnation of ``name``: one epoch up (a new member
        id and queue), on ``worker`` or, for a component that hosts actors
        while workers exist, on the one the control plane assigns.
        Client components stay worker-less beside any number of workers."""
        old = self.components.get(name)
        if old is not None:
            if old.alive:
                raise ValueError(f"component {name!r} is still running")
            if old.worker is not None:
                old.worker.hosted.discard(name)
        if worker is None and types and self.control.workers:
            worker = self.control.assign_workers()[0]
        # Journal first, memory second: a refused write leaves the epoch
        # where the journal has it.
        epoch = self._epochs.get(name, -1) + 1
        self.broker.log.set_meta(f"app:{self.name}:epoch:{name}", epoch)
        self._epochs[name] = epoch
        self.component_types[name] = frozenset(types)
        component = self.components[name] = Component(
            self, name, types, epoch, worker=worker
        )
        component.start()
        if worker is not None:
            worker.hosted.add(name)
        return component

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill_component(self, name: str) -> None:
        """Abrupt fail-stop of a component (both paired processes)."""
        self.components[name].fail()

    def restart_component(
        self, name: str, *, worker: KarWorker | None = None
    ) -> Component:
        """Spawn a fresh incarnation (new member id, new queue) of a
        previously-added component, as a restarted node's replicas would.

        ``worker`` re-hosts the new incarnation on a specific worker event
        loop (the handoff target); the new epoch's lease acquisition fences
        whatever is left of the old incarnation.
        """
        types = tuple(sorted(self.component_types[name]))
        return self._start_component(name, types, worker)

    # ------------------------------------------------------------------
    # external clients
    # ------------------------------------------------------------------
    def client(self, name: str = "client") -> Component:
        """A component hosting no actors, used to drive the application
        (the paper's simulators / WebAPI run as such components)."""
        if self._client is None or not self._client.alive:
            self._client = self.add_component(name)
        return self._client

    async def call(self, ref: ActorRef, method: str, *args: Any) -> Any:
        """Blocking root invocation from the default external client."""
        return await self.client().invoke(None, ref, method, tuple(args), True)

    async def tell(self, ref: ActorRef, method: str, *args: Any) -> None:
        await self.client().invoke(None, ref, method, tuple(args), False)

    # ------------------------------------------------------------------
    # synchronous driving helpers (tests, benches)
    # ------------------------------------------------------------------
    def run_call(
        self, ref: ActorRef, method: str, *args: Any, timeout: float | None = 600.0
    ) -> Any:
        client = self.client()
        task = self.kernel.spawn(
            client.invoke(None, ref, method, tuple(args), True),
            process=client.process,
            name=f"client.call:{ref}.{method}",
        )
        return self.kernel.run_until_complete(task, timeout=timeout)

    def settle(self, max_wait: float = 120.0) -> None:
        """Drive the kernel until the group has a generation and is
        unpaused (the application is ready to process invocations)."""
        deadline = self.kernel.now + max_wait
        while self.coordinator.generation == 0 or self.coordinator.paused:
            if self.kernel.now >= deadline:
                raise TimeoutError("application did not settle")
            self.kernel.run(until=min(self.kernel.now + 0.5, deadline))

    def live_component_names(self) -> list[str]:
        return sorted(
            member.rsplit("#", 1)[0]
            for member in self.coordinator.member_ids()
        )

    def api(self, client_name: str = "gateway") -> KarApi:
        """The narrow external-operation facade (the sidecar surface the
        HTTP gateway binds to). One facade per application, created on
        first use; its client component starts lazily on first operation."""
        if self._api is None:
            self._api = KarApi(self, client_name)
        return self._api

    # ------------------------------------------------------------------
    # the unified evidence surface
    # ------------------------------------------------------------------
    def stats(self, family: str | None = None) -> dict[str, Any]:
        """The unified evidence tree: every counter family under one
        namespaced roof.

        ``stats()`` assembles the whole tree; ``stats("transport")``
        returns just one family without paying for the others (the cheap
        form for polling loops). Families: ``transport``, ``store``,
        ``persistence``, ``overload``, ``calls``, ``placement``,
        ``gateway``, ``workers``.
        """
        builders = {
            "transport": self._transport_stats,
            "store": self._store_stats,
            "persistence": self._persistence_stats,
            "overload": self._overload_stats,
            "calls": self._calls_stats,
            "placement": self.control.placement_stats,
            "gateway": self._gateway_stats,
            "workers": self.control.workers_stats,
        }
        if family is not None:
            try:
                return builders[family]()
            except KeyError:
                raise KeyError(
                    f"unknown stats family {family!r}; "
                    f"expected one of {sorted(builders)}"
                ) from None
        return {name: build() for name, build in builders.items()}

    def _transport_stats(self) -> dict[str, int]:
        """Broker + per-router transport counters: the evidence surface
        for the throughput benchmarks (round trips vs. records sent)."""
        routers = [c.router for c in self.components.values()]
        return {
            "produce_round_trips": self.broker.produce_count,
            "records_appended": self.broker.produce_record_count,
            "outbox_batches": sum(r.batches_flushed for r in routers),
            "outbox_records": sum(r.records_sent for r in routers),
            "largest_batch": max(
                (r.largest_batch for r in routers), default=0
            ),
        }

    def _store_stats(self) -> dict[str, int]:
        """Store-side pipeline counters: latency-paying round trips vs.
        operations landed, mirroring the transport family for the outbox."""
        clients = [
            c.store_client
            for c in self.components.values()
            if c.store_client is not None
        ]
        return {
            "store_round_trips": self.store.round_trips,
            "store_operations": self.store.operation_count,
            "pipeline_batches": sum(c.batches_flushed for c in clients),
            "pipeline_ops": sum(c.ops_pipelined for c in clients),
            "largest_pipeline_batch": max(
                (c.largest_batch for c in clients), default=0
            ),
        }

    def _calls_stats(self) -> dict[str, Any]:
        """Journal-derived call settlement: the reconciliation leader's own
        pending-call criterion (Section 4.3) applied to the current
        journals. After recovery has run and the workload drained,
        ``unsettled`` must be empty -- every in-flight call at crash time
        was driven to a durable completion."""
        requested, responded = self._journal_call_ids()
        unsettled = sorted(requested - responded)
        return {"unsettled": unsettled, "unsettled_count": len(unsettled)}

    def _journal_call_ids(self) -> tuple[set[str], set[str]]:
        """Ids with a retained request record, and ids with a response
        (read from the ids alone: no replayed envelope is decoded)."""
        requested: set[str] = set()
        responded: set[str] = set()
        topic = self.broker.topics.get(self.topic_name)
        if topic is not None:
            for record in topic.snapshot_unexpired(self.kernel.now):
                key = envelope_id(record)
                if key is not None:
                    (responded if key[0] else requested).add(key[1])
        return requested, responded

    def _gateway_stats(self) -> dict[str, Any]:
        """The serving edge's per-route/per-actor-type counters, call
        latency histograms and kernel-bridge pump counters, when an HTTP
        gateway is attached."""
        if self.gateway_snapshot is None:
            return {"attached": False}
        return {**self.gateway_snapshot(), "attached": True}

    # ------------------------------------------------------------------
    # overload control: the dead-letter parking lot
    # ------------------------------------------------------------------
    async def park_dead_letter(self, letter: DeadLetter, client_id: str) -> None:
        """Durably append one dead letter (fenced producers still rejected)."""
        await self.broker.produce(
            self.dead_letter_topic, DEAD_LETTER_PARTITION, letter, client_id
        )

    def _dead_letter_values(self) -> list[DeadLetter]:
        topic = self.broker.topics.get(self.dead_letter_topic)
        if topic is None or DEAD_LETTER_PARTITION not in topic.partitions:
            return []
        # snapshot(), not unexpired(): reading the parking lot must never
        # trigger a retention-expiry sweep on it.
        return [
            record.value
            for record in topic.partitions[DEAD_LETTER_PARTITION].snapshot()
            if isinstance(record.value, DeadLetter)
        ]

    def dead_letters(self) -> list[dict[str, Any]]:
        """The parked calls, each with its full failure history."""
        return [letter.describe() for letter in self._dead_letter_values()]

    def dead_letter_index(self) -> set[tuple[str, int]]:
        """Dedup keys of every parked request (reconciliation skips these:
        redelivery of a parked call belongs to the parking lot, not the
        crash-recovery copy path)."""
        return {
            letter.request.dedup_key for letter in self._dead_letter_values()
        }

    def _overload_stats(self) -> dict[str, Any]:
        """Aggregate overload-control evidence across the current component
        incarnations (like the transport family): retry-budget consumption,
        breaker states and transitions, shed counts, and the dead letters
        currently parked, each with its full failure history."""
        totals: dict[str, Any] = {}
        for component in self.components.values():
            for key, value in component.overload.stats(self.kernel.now).items():
                if key == "max_pending":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        letters = self.dead_letters()
        totals["dead_letter_depth"] = len(letters)
        totals["dead_letters"] = letters
        totals["dead_letters_replayed"] = self.dead_letters_replayed
        return totals

    async def redeliver_dead_letters_async(
        self, reset_breakers: bool = True
    ) -> dict[str, int]:
        """Replay every parked call after the fault clears.

        Exactly-once end to end: letters whose request id already has a
        response in the journal are skipped (settled elsewhere -- e.g. a
        reconciliation copy completed while the letter sat parked), the
        batch is deduplicated by (id, step), and each replay re-enters the
        normal routing path -- single placement plus per-component (id,
        step) dedup make a replay that races a recovery copy execute once.
        A replay that fails again simply parks a fresh letter.

        ``reset_breakers`` force-closes every breaker first: invoking
        redelivery is the operator's declaration that the fault cleared,
        and without it the replays would divert straight back to the lot.
        """
        letters = self._dead_letter_values()
        summary = {
            "parked": len(letters),
            "replayed": 0,
            "skipped_settled": 0,
            "skipped_duplicate": 0,
            "breakers_reset": 0,
        }
        if reset_breakers:
            for component in self.components.values():
                if component.alive:
                    summary["breakers_reset"] += (
                        component.overload.reset_breakers(self.kernel.now)
                    )
        if not letters:
            return summary
        requested, responded = self._journal_call_ids()
        # Drop the lot up front: a replay that fails again re-parks a fresh
        # letter (with its extended history) instead of duplicating itself.
        self.broker.topic(self.dead_letter_topic).drop_partition(
            DEAD_LETTER_PARTITION
        )
        client = self.client()
        seen: set[tuple[str, int]] = set()
        for letter in letters:
            request = letter.request
            if request.dedup_key in seen:
                summary["skipped_duplicate"] += 1
                continue
            seen.add(request.dedup_key)
            if request.request_id in responded:
                summary["skipped_settled"] += 1
                self.trace.emit(
                    "deadletter.skipped",
                    request=request.request_id,
                    step=request.step,
                    reason="already settled",
                )
                continue
            if request.after_callee is not None and not (
                request.after_callee in requested
                and request.after_callee not in responded
            ):
                # The happen-before callee already settled (or its evidence
                # expired): replaying with the annotation intact would park
                # forever on a response that will never arrive again.
                request = request.without_after_callee()
            await client.router.route_request(request)
            summary["replayed"] += 1
            self.dead_letters_replayed += 1
            self.trace.emit(
                "deadletter.replayed",
                request=request.request_id,
                step=request.step,
                actor=str(request.actor),
                method=request.method,
            )
        return summary

    def redeliver_dead_letters(
        self, reset_breakers: bool = True, timeout: float | None = 600.0
    ) -> dict[str, int]:
        """Synchronous driver for :meth:`redeliver_dead_letters_async`."""
        client = self.client()
        task = self.kernel.spawn(
            self.redeliver_dead_letters_async(reset_breakers),
            process=client.process,
            name="redeliver_dead_letters",
        )
        return self.kernel.run_until_complete(task, timeout=timeout)

    def _persistence_stats(self) -> dict[str, int]:
        """Durable-layer counters: journal volume, compaction, replay."""
        log = self.broker.log
        return {
            "boot": self.boot,
            "records_logged": log.records_logged,
            "records_retained": log.retained_records(),
            "log_compactions": log.compactions,
            "journal_rewrites": getattr(log, "rewrites", 0),
            "restored_records": self.restored_records,
        }
