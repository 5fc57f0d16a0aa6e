"""Multi-worker scale-out: N event loops over the shared durable backends.

The paper's deployment (Section 5) is many sidecar processes sharing one
Kafka and one Redis; where a sidecar runs is outside its model. Here:

- a :class:`KarWorker` is one worker event loop: a failure domain (a
  :class:`~repro.sim.SimProcess`) and a :class:`WorkerLoop` busy horizon
  that serializes the CPU cost of every actor invocation it hosts
  (``KarConfig.worker_loop_cost``). With a positive cost one worker is a
  throughput ceiling and N workers buy ~N x;
- a :class:`ControlPlane` is what every
  :class:`~repro.core.app.KarApplication` builds from ``workers=`` and
  holds as ``app.control``: worker lifecycle (add, graceful remove, kill),
  failure detection (store heartbeats), the handoff and the placement
  actions. With no workers it is inert (no task, no timer).

One rule says which worker hosts a component,
:meth:`ControlPlane.assign_workers`: live workers sorted least busy, then
fewest hosted, then id. It places a new component, a failed or removed
worker's components, a migration whose target died and a split's
children. A worker *join* levels hosted counts: the fullest worker hands
components to the emptiest until they differ by at most one.

Every move is one handoff:

1. **drain** -- the leaving component finishes in-flight frames and flushes
   its send outbox (:meth:`~repro.core.runtime.Component.drain`), bounded
   by ``drain_timeout``;
2. **fence** -- the old incarnation leaves the group (on a crash, the
   session-timeout watchdog evicts it); the broker fences its member id,
   and the successor's partition lease at ``epoch + 1`` fences whatever
   zombie survives even a cold restart;
3. **replay tail** -- the rebalance elects a leader whose reconciliation
   re-places every request stranded in the old incarnation's queue (the
   paper's retry orchestration; dedup by (request id, step) keeps the
   replay exactly-once);
4. **resume** -- the leader lifts the group pause. Placement stores
   component *names*, so a move never invalidates where actors live.

Every component, on any worker or none, is a member of the application's
one :class:`~repro.mq.GroupCoordinator`. Worker *liveness* has one signal:
each worker's loop writes a heartbeat hash on ``app.store.backend`` and the
control loop sweeps it, so a dead loop and a stalled (wedged) one fail
alike. Components no live worker can take stay down until the next
:meth:`ControlPlane.add_worker`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Coroutine, Sequence

from repro.core.placement import sub_partition_names
from repro.core.placement_ctl import LOAD_HALFLIFE, PlacementController
from repro.sim import Kernel, SimProcess

if TYPE_CHECKING:
    from repro.core.app import KarApplication

__all__ = ["ControlPlane", "DecayingCounter", "KarWorker", "WorkerLoop"]

_LN2 = math.log(2.0)

#: Seconds between a worker's heartbeats into the shared store; four silent
#: intervals and the control plane declares the worker dead and re-hosts
#: its components on the survivors.
WORKER_HEARTBEAT_INTERVAL = 0.2


class DecayingCounter:
    """An exponentially decaying accumulator (half-life in seconds).

    Deposits fold the decay in lazily -- no ticking task -- so reading the
    counter is pure arithmetic on (value, stamp). ``rate`` converts the
    decayed mass into the steady input rate that would sustain it: a
    constant inflow of ``r`` per second equilibrates at
    ``r * halflife / ln 2``.
    """

    __slots__ = ("halflife", "_value", "_stamp")

    def __init__(self, halflife: float):
        self.halflife = halflife
        self._value = 0.0
        self._stamp = 0.0

    def add(self, amount: float, now: float) -> None:
        self._value = self.value(now) + amount
        self._stamp = now

    def value(self, now: float) -> float:
        if self._value == 0.0:
            return 0.0
        return self._value * 0.5 ** ((now - self._stamp) / self.halflife)

    def rate(self, now: float) -> float:
        return self.value(now) * _LN2 / self.halflife


class WorkerLoop:
    """The busy horizon of one worker event loop.

    Charges serialize: each one starts no earlier than the previous one
    ended, so concurrent executions hosted on the same worker queue behind
    each other exactly like coroutines on one OS event loop. A zero cost
    returns without yielding to the scheduler: it adds no kernel event.

    Besides the lifetime totals the loop keeps decaying *windows* -- busy
    seconds and call counts, per loop and per hosted component -- which are
    the load plane's signal: current hotness, not accumulated history.
    """

    def __init__(self, kernel: Kernel, cost: float):
        self.kernel = kernel
        self.cost = cost
        self.busy_until = 0.0
        self.calls_charged = 0
        self.busy_seconds_total = 0.0
        #: Set when the hosting worker wedges: charges stall forever and the
        #: worker's heartbeat, written by this loop, stops with them.
        self.stalled = False
        self._busy_window = DecayingCounter(LOAD_HALFLIFE)
        self._component_busy: dict[str, DecayingCounter] = {}
        self._component_calls: dict[str, DecayingCounter] = {}

    async def charge(self, component: str | None = None) -> None:
        if self.stalled:
            # A wedged loop never schedules the execution; the stuck task
            # dies with the component process when the control plane
            # re-hosts it.
            await self.kernel.create_future()
        self.calls_charged += 1
        now = self.kernel.now
        if component is not None:
            self._window(self._component_calls, component).add(1.0, now)
        if self.cost <= 0.0:
            return
        start = max(now, self.busy_until)
        self.busy_until = start + self.cost
        self.busy_seconds_total += self.cost
        self._busy_window.add(self.cost, now)
        if component is not None:
            self._window(self._component_busy, component).add(self.cost, now)
        await self.kernel.sleep(self.busy_until - now)

    def _window(
        self, windows: dict[str, DecayingCounter], component: str
    ) -> DecayingCounter:
        window = windows.get(component)
        if window is None:
            window = windows[component] = DecayingCounter(LOAD_HALFLIFE)
        return window

    # ------------------------------------------------------------------
    # load plane readings
    # ------------------------------------------------------------------
    def busy_seconds(self, now: float) -> float:
        """Decayed busy-seconds window (current hotness, not history)."""
        return self._busy_window.value(now)

    def busy_rate(self, now: float) -> float:
        """Fraction of this loop currently consumed by charges (0..~1)."""
        return self._busy_window.rate(now)

    def component_loads(self, now: float) -> dict[str, dict[str, float]]:
        """Per-component decayed load: calls/sec and busy-rate share."""
        names = set(self._component_busy) | set(self._component_calls)
        loads: dict[str, dict[str, float]] = {}
        for name in sorted(names):
            calls = self._component_calls.get(name)
            busy = self._component_busy.get(name)
            loads[name] = {
                "calls_per_s": calls.rate(now) if calls is not None else 0.0,
                "busy_rate": busy.rate(now) if busy is not None else 0.0,
            }
        return loads

    def export_component(
        self, name: str
    ) -> tuple[DecayingCounter | None, DecayingCounter | None]:
        """Detach a component's load windows for transfer to another loop.

        A migration must *carry* the component's load history: resetting
        it on every move makes the hottest component look perpetually cool
        right after each handoff, so the controller keeps migrating the
        hotspot instead of ever seeing it cross the split threshold. A
        component that leaves for good (split, merged) drops what this
        returns, so its old host stops reporting phantom load for it.
        """
        return (
            self._component_busy.pop(name, None),
            self._component_calls.pop(name, None),
        )

    def adopt_component(
        self,
        name: str,
        windows: tuple[DecayingCounter | None, DecayingCounter | None],
    ) -> None:
        """Install load windows exported from the previous host."""
        busy, calls = windows
        if busy is not None:
            self._component_busy[name] = busy
        if calls is not None:
            self._component_calls[name] = calls


class KarWorker:
    """One worker event loop: a failure domain hosting components.

    The worker's loop heartbeats into the shared store (`_cluster:<app>:
    heartbeats`) so the control plane detects its death or stall the same
    way the group detects a member's -- by silence, through the backend.
    """

    def __init__(self, control: "ControlPlane", worker_id: str):
        self.app = app = control.app
        self.worker_id = worker_id
        self.kernel = app.kernel
        self.process = SimProcess(f"worker:{worker_id}")
        self.loop = WorkerLoop(app.kernel, app.config.worker_loop_cost)
        #: Component names currently hosted on this loop.
        self.hosted: set[str] = set()
        #: Set on graceful removal; a retired worker takes no new components.
        self.retired = False
        # The first beat is written now, not when the loop's task first
        # runs: a heartbeat sweep due at this instant runs before that task,
        # and a worker with no beat would read as silent since time zero.
        app.store.backend.hset(control.heartbeat_key, worker_id, self.kernel.now)
        self.kernel.spawn(
            self._heartbeat_loop(control.heartbeat_key),
            self.process,
            name=f"worker-heartbeat:{worker_id}",
        )

    @property
    def alive(self) -> bool:
        return self.process.alive

    @property
    def wedged(self) -> bool:
        return self.loop.stalled

    async def _heartbeat_loop(self, key: str) -> None:
        backend = self.app.store.backend
        while True:
            await self.kernel.sleep(WORKER_HEARTBEAT_INTERVAL)
            if self.loop.stalled:
                return
            backend.hset(key, self.worker_id, self.kernel.now)

    def wedge(self) -> None:
        """Wedge this worker: its processes live on, its loop stops.

        Models a live-but-stuck event loop (GC death spiral, hung syscall
        on the hot path). The loop writes the heartbeat, so it stops too and
        the worker is declared failed exactly as if it had died.
        """
        self.loop.stalled = True
        self.app.trace.emit("worker.wedge", worker=self.worker_id)

    def stats(self) -> dict[str, Any]:
        """Per-worker slice of the unified evidence surface."""
        components = [
            component
            for component in self.app.components.values()
            if component.worker is self
        ]
        live = [c for c in components if c.alive]
        now = self.kernel.now
        return {
            "alive": self.alive,
            "retired": self.retired,
            "wedged": self.wedged,
            "hosted": sorted(self.hosted),
            "calls_charged": self.loop.calls_charged,
            # The decayed window: *current* hotness. The lifetime counter
            # moved to busy_seconds_total.
            "busy_seconds": self.loop.busy_seconds(now),
            "busy_seconds_total": self.loop.busy_seconds_total,
            "busy_rate": self.loop.busy_rate(now),
            "component_load": self.loop.component_loads(now),
            "outbox_batches": sum(c.router.batches_flushed for c in live),
            "outbox_records": sum(c.router.records_sent for c in live),
        }

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"KarWorker({self.worker_id}, {state}, hosted={sorted(self.hosted)})"


class ControlPlane:
    """The worker side of one application: who runs, and what runs where.

    Hosts actor-hosting components on the worker loops
    (:meth:`assign_workers`) and moves them on worker join, graceful leave,
    crash, and load. Client components (no actor types) never land on a
    worker, exactly like the paper's simulators driving the deployment from
    outside.
    """

    def __init__(self, app: "KarApplication", worker_ids: Sequence[str]):
        self.app = app
        self.kernel = app.kernel
        self.config = app.config
        self.trace = app.trace
        self.heartbeat_key = f"_cluster:{app.name}:heartbeats"
        #: Worker event loops keyed by worker id.
        self.workers: dict[str, KarWorker] = {}
        #: Workers the control plane declared failed (evidence surface).
        self.workers_failed: list[str] = []
        #: Component migrations performed (join/leave/crash re-hosting and
        #: load-triggered moves).
        self.migrations = 0
        #: Hot-component splits / cool-down merges performed.
        self.splits = 0
        self.merges = 0
        #: parent component -> its live sub-partition names, while split.
        self.split_children: dict[str, tuple[str, ...]] = {}
        #: Serializes drain->fence->restart handoffs: concurrent movers
        #: (join rebalance, the placement controller, graceful removal)
        #: must not drain or restart the same component at once.
        self._handoff_active = False
        self._sweeping = False
        #: The load-driven placement policy; ``None`` is a static cluster.
        self.placement_ctl: PlacementController | None = PlacementController(self)
        for worker_id in worker_ids:
            self.workers[worker_id] = KarWorker(self, worker_id)
        self._ensure_control_loop()

    def _ensure_control_loop(self) -> None:
        """The sweeps run from the first worker on; none, no task."""
        if self.workers and not self._sweeping:
            self._sweeping = True
            self.kernel.spawn(
                self._control_loop(), name=f"cluster-control:{self.app.name}"
            )

    # ------------------------------------------------------------------
    # worker-aware component hosting
    # ------------------------------------------------------------------
    def _live_workers(self) -> list[KarWorker]:
        return [
            worker
            for worker in self.workers.values()
            if worker.alive and not worker.retired
        ]

    def assign_workers(self, count: int = 1) -> list[KarWorker]:
        """The one placement rule: ``count`` live workers, least busy first,
        then fewest hosted, then id, cycling when ``count`` exceeds them."""
        now = self.kernel.now
        live = sorted(
            self._live_workers(),
            key=lambda worker: (
                worker.loop.busy_rate(now),
                len(worker.hosted),
                worker.worker_id,
            ),
        )
        if not live:
            raise RuntimeError("no live workers to host components")
        return [live[index % len(live)] for index in range(count)]

    def worker_of(self, component_name: str) -> str | None:
        component = self.app.components.get(component_name)
        if component is None or component.worker is None:
            return None
        return component.worker.worker_id

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str | None = None) -> KarWorker:
        """Start a new worker loop and level hosted counts onto it."""
        if worker_id is None:
            index = len(self.workers)
            while f"w{index}" in self.workers:
                index += 1
            worker_id = f"w{index}"
        if worker_id in self.workers and self.workers[worker_id].alive:
            raise ValueError(f"worker {worker_id!r} is already running")
        worker = self.workers[worker_id] = KarWorker(self, worker_id)
        self._ensure_control_loop()
        self.kernel.spawn(
            self._rebalance_components(),
            name=f"cluster-join:{worker_id}",
        )
        return worker

    def kill_worker(self, worker_id: str) -> None:
        """Abrupt fail-stop of a worker loop and everything it hosts.

        The group watchdog evicts the dead members on session timeout and
        the control plane re-hosts their component names on the survivors;
        reconciliation then replays the stranded tail of each migrated
        partition.
        """
        worker = self.workers[worker_id]
        self.trace.emit(
            "worker.kill", worker=worker_id, hosted=sorted(worker.hosted)
        )
        for name in sorted(worker.hosted):
            component = self.app.components.get(name)
            if (
                component is not None
                and component.alive
                and component.worker is worker
            ):
                component.process.kill()
        worker.process.kill()

    def remove_worker_async(self, worker_id: str) -> Coroutine[Any, Any, None]:
        """Graceful leave: hand off every hosted component (drain -> fence
        the old epoch -> restart elsewhere), then stop the worker loop. The
        settled set must match a crash's -- the only difference is who pays
        (drain here, reconciliation there).

        Refused, before anything is retired, when no other live worker could
        take what this one hosts.
        """
        worker = self.workers[worker_id]
        if worker.hosted and set(self._live_workers()) <= {worker}:
            raise ValueError(
                f"worker {worker_id!r} hosts components and is the last "
                "live worker"
            )
        return self._retire_worker(worker)

    async def _retire_worker(self, worker: KarWorker) -> None:
        """Move each hosted component as a migration does, then stop the
        worker; what the moves leave is handled as a failed worker's is."""
        worker.retired = True
        self.trace.emit(
            "worker.retire", worker=worker.worker_id, hosted=sorted(worker.hosted)
        )
        await self._acquire_handoff_gate()
        try:
            for name in sorted(worker.hosted):
                if name in worker.hosted:  # not restarted elsewhere meanwhile
                    await self._move_component(name)
        finally:
            self._release_handoff_gate()
        worker.process.kill()
        self._restart_hosted(worker)

    def remove_worker(
        self, worker_id: str, timeout: float | None = 600.0
    ) -> None:
        """Synchronous driver for :meth:`remove_worker_async`."""
        leave = self.remove_worker_async(worker_id)
        task = self.kernel.spawn(leave, name=f"cluster-leave:{worker_id}")
        self.kernel.run_until_complete(task, timeout=timeout)

    # ------------------------------------------------------------------
    # the handoff gate (one drain->fence->restart mover at a time)
    # ------------------------------------------------------------------
    async def _acquire_handoff_gate(self) -> None:
        while self._handoff_active:
            await self.kernel.sleep(0.01)
        self._handoff_active = True

    def _release_handoff_gate(self) -> None:
        self._handoff_active = False

    def _target_worker(self, target_id: str | None) -> KarWorker | None:
        """Re-validate a migration target *after* the drain.

        The drain can outlast the target: a worker killed while it is the
        destination of an in-flight handoff must not strand the draining
        component, so a dead, retired or unnamed target falls back to
        :meth:`assign_workers` over the current live set, if any.
        """
        live = self._live_workers()
        target = self.workers.get(target_id)
        if target in live:
            return target
        return self.assign_workers()[0] if live else None

    # ------------------------------------------------------------------
    # moves; the caller holds the handoff gate
    # ------------------------------------------------------------------
    async def _move_component(self, name: str, target_id: str | None = None) -> bool:
        """Move one component: the drain -> fence -> replay handoff, for a
        migration, a worker join and a removal. With no live worker to take
        it, the stopped component stays in its host's ``hosted`` until the
        next :meth:`add_worker`."""
        component = self.app.components.get(name)
        if component is None or not component.alive or component.worker is None:
            return False
        source = component.worker
        drained = await component.drain(self.config.drain_timeout)
        if not component.alive:
            # Crashed mid-drain; the failure path owns the re-host.
            return False
        component.stop()
        target = self._target_worker(target_id)
        if target is None:
            return False
        windows = source.loop.export_component(name)
        self.trace.emit(
            "component.handoff",
            component=name,
            drained=drained,
            to_worker=target.worker_id,
        )
        self.migrations += 1
        self.app.restart_component(name, worker=target)
        # The load history moves with the component so the controller
        # keeps seeing its true hotness across the handoff.
        target.loop.adopt_component(name, windows)
        return True

    async def _split_component(self, name: str, parts: int) -> bool:
        """Split a hot component into sub-partitions spread over workers.

        Drain -> fence the parent (it leaves the group; its lease family
        stays fenced at its final epoch) -> start ``parts`` children
        announcing the same actor types. Placement re-keys the parent's
        actors by id over the new candidate set on the next send, and
        reconciliation replays whatever the drain left stranded in the
        parent's queue -- the split rides the exact machinery a crash does,
        so exactly-once settlement is preserved by construction.
        """
        component = self.app.components.get(name)
        if component is None or not component.alive or component.worker is None:
            return False
        types = tuple(sorted(self.app.component_types.get(name, ())))
        if not types:
            return False
        children = sub_partition_names(name, parts)
        source = component.worker
        drained = await component.drain(self.config.drain_timeout)
        if not component.alive:
            return False
        component.stop()
        source.hosted.discard(name)
        source.loop.export_component(name)
        self.split_children[name] = children
        self.splits += 1
        self.trace.emit(
            "component.split",
            component=name,
            children=list(children),
            drained=drained,
        )
        targets = self.assign_workers(len(children))
        for child, target in zip(children, targets):
            self.app.add_component(child, types, worker=target)
        return True

    async def _merge_component(self, name: str) -> bool:
        """Merge a cooled component's sub-partitions back into the parent.

        Children drain and leave one by one; the parent restarts at its
        next epoch and the actors re-key back as child placements die.
        """
        children = self.split_children.get(name)
        if children is None:
            return False
        for child in children:
            component = self.app.components.get(child)
            if component is not None and component.alive:
                await component.drain(self.config.drain_timeout)
            # The drain may have raced a failure re-host; fence
            # whichever incarnation is current now.
            component = self.app.components.get(child)
            if component is not None and component.alive:
                component.stop()
            if component is not None and component.worker is not None:
                component.worker.hosted.discard(child)
                component.worker.loop.export_component(child)
            # Forget the child entirely so no failure path resurrects
            # it after the merge.
            self.app.components.pop(child, None)
            self.app.component_types.pop(child, None)
        self.split_children.pop(name, None)
        self.merges += 1
        self.trace.emit(
            "component.merge", component=name, children=list(children)
        )
        self.app.restart_component(name)
        return True

    # ------------------------------------------------------------------
    # control loop: worker failure detection via store heartbeats
    # ------------------------------------------------------------------
    async def _control_loop(self) -> None:
        backend = self.app.store.backend
        session_timeout = 4.0 * WORKER_HEARTBEAT_INTERVAL
        while self._sweeping:
            await self.kernel.sleep(WORKER_HEARTBEAT_INTERVAL)
            if not self._sweeping:
                return
            beats = backend.hgetall(self.heartbeat_key)
            now = self.kernel.now
            for worker_id, worker in list(self.workers.items()):
                if worker.retired:
                    continue
                last = float(beats.get(worker_id, 0.0))
                if now - last > session_timeout:
                    self._on_worker_failed(worker)
            if self.placement_ctl is not None:
                self.placement_ctl.tick(now)

    def _on_worker_failed(self, worker: KarWorker) -> None:
        """Declare a silent worker -- dead or wedged -- failed and re-host
        its components on the survivors."""
        worker.retired = True
        self.workers_failed.append(worker.worker_id)
        self.trace.emit(
            "worker.failed",
            worker=worker.worker_id,
            hosted=sorted(worker.hosted),
        )
        self._restart_hosted(worker)
        worker.process.kill()

    def _restart_hosted(self, worker: KarWorker) -> None:
        """Restart, undrained, what a retired ``worker`` still hosts; with
        no survivor it stays listed there until the next :meth:`add_worker`."""
        survivors = bool(self._live_workers())
        for name in sorted(worker.hosted):
            component = self.app.components.get(name)
            if component is None or component.worker is not worker:
                worker.hosted.discard(name)
                continue
            if component.alive:
                # A worker that stopped heartbeating is dead by declaration;
                # any still-running hosted process is a zombie to terminate
                # (the paired-process rule applied at worker granularity).
                component.process.kill()
            if survivors:
                self.migrations += 1
                self.app.restart_component(name)

    async def _rebalance_components(self) -> None:
        """A worker joined: re-host what went down with a failed worker no
        survivor could relieve, then level hosted counts.

        The fullest live worker hands a component to the emptiest until
        their counts differ by at most one. Each move is chosen under the
        handoff gate, from the counts as they then are, and names its
        target, so every move narrows the gap and two joins at once level
        once.
        """
        for worker in list(self.workers.values()):
            if worker.retired and not worker.alive:
                self._restart_hosted(worker)
        while True:
            await self._acquire_handoff_gate()
            try:
                by_count = sorted(
                    self._live_workers(),
                    key=lambda worker: (len(worker.hosted), worker.worker_id),
                )
                if not by_count:
                    return
                emptiest, fullest = by_count[0], by_count[-1]
                name = min(
                    (n for n in fullest.hosted if self.app.components[n].alive),
                    default=None,
                )
                gap = len(fullest.hosted) - len(emptiest.hosted)
                if gap <= 1 or name is None:
                    return
                if not await self._move_component(name, emptiest.worker_id):
                    return
            finally:
                self._release_handoff_gate()

    # ------------------------------------------------------------------
    # evidence surface and lifecycle
    # ------------------------------------------------------------------
    def placement_stats(self) -> dict[str, Any]:
        """``stats("placement")``: everything at rest with no workers; a
        static cluster (no controller) reports no controller and no load."""
        ctl = self.placement_ctl
        return {
            "migrations": self.migrations,
            "splits": self.splits,
            "merges": self.merges,
            "split_children": {
                parent: list(children)
                for parent, children in sorted(self.split_children.items())
            },
            "controller": ctl.stats() if ctl is not None else None,
            "load": ctl.load if ctl is not None else {},
        }

    def workers_stats(self) -> dict[str, Any]:
        """``stats("workers")``: one slice per worker loop."""
        return {
            worker_id: worker.stats()
            for worker_id, worker in self.workers.items()
        }

    def stop(self) -> None:
        """Cold stop: every worker loop dies with the application."""
        self._sweeping = False
        for worker in self.workers.values():
            if worker.alive:
                worker.process.kill()
