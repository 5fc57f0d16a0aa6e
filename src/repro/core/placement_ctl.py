"""Load-aware placement control (the adaptive half of the scale-out story).

Hosting by count leaves one hot component pinning a single worker loop under
zipfian traffic while the rest idle. Each control tick closes the loop:

- the **load plane**: sample every live worker's decaying busy window and
  per-component load from its :class:`~repro.core.cluster.WorkerLoop`; the
  last sample is ``stats("placement")["load"]``;
- the **controller**: plan at most ``MIGRATION_BUDGET`` actions from that
  sample, with hysteresis (``rebalance_cooldown``) so it reacts to
  sustained skew, not noise:

  * **merge** split children back into their parent once the busiest
    worker has idled below the merge floor for ``MERGE_PATIENCE_TICKS``
    consecutive ticks (the skew subsided cluster-wide);
  * **split** a component whose own busy rate exceeds ``split_threshold``
    -- it saturates any single worker, so no migration can help it;
  * **migrate** the hottest movable component off the busiest worker when
    worker imbalance ``(max - min) / max`` exceeds
    ``rebalance_threshold``.

  ``split_threshold=inf`` with ``rebalance_threshold=1.0`` plans nothing.

Every action rides the drain -> fence -> replay-tail handoff
(:class:`~repro.core.cluster.ControlPlane`), so exactly-once settlement is
preserved by the same machinery that covers crashes and joins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.placement import parent_partition

if TYPE_CHECKING:
    from repro.core.cluster import ControlPlane

__all__ = ["PlacementController"]

#: Consecutive cold ticks before split children merge back; patience keeps
#: a briefly idle hot component from flapping split -> merge -> split.
MERGE_PATIENCE_TICKS = 4

#: Upper bound on placement actions (migrations/splits/merges) started per
#: control tick.
MIGRATION_BUDGET = 1

#: Merge hysteresis: split children fold back once the busiest worker stays
#: below ``split_threshold * SPLIT_MERGE_RATIO``.
SPLIT_MERGE_RATIO = 0.25

#: Ignore imbalance while the busiest worker is under this busy rate: an
#: almost-idle cluster has nothing worth paying a handoff for.
MIN_ACTIONABLE_RATE = 0.2


class PlacementController:
    """Plans load-driven migrations/splits/merges for one control plane."""

    def __init__(self, control: "ControlPlane"):
        self.control = control
        self.config = control.config
        self.ticks = 0
        #: The last load-plane sample (``{}`` before the first tick).
        self.load: dict[str, Any] = {}
        #: Actions planned, by kind (scheduled, not necessarily performed;
        #: the control plane counts performed ones).
        self.planned: dict[str, int] = {"migrate": 0, "split": 0, "merge": 0}
        self._last_action_at = -float("inf")
        self._running = False
        self._cold_ticks: dict[str, int] = {}

    # ------------------------------------------------------------------
    # the control tick
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        self.ticks += 1
        worker_rates, component_loads = self._sample(now)
        self.load = {"workers": worker_rates, "components": component_loads}
        if self._running:
            return
        if now - self._last_action_at < self.config.rebalance_cooldown:
            return
        actions = self._plan(worker_rates, component_loads)
        if not actions:
            return
        self._last_action_at = now
        self._running = True
        self.control.kernel.spawn(
            self._run(actions),
            name=f"placement-ctl:{self.control.app.name}",
        )

    def _sample(
        self, now: float
    ) -> tuple[dict[str, float], dict[str, dict[str, Any]]]:
        worker_rates: dict[str, float] = {}
        component_loads: dict[str, dict[str, Any]] = {}
        for worker_id, worker in sorted(self.control.workers.items()):
            if not worker.alive or worker.retired:
                continue
            worker_rates[worker_id] = worker.loop.busy_rate(now)
            for name, load in worker.loop.component_loads(now).items():
                if name in worker.hosted:
                    component_loads[name] = dict(load, worker=worker_id)
        return worker_rates, component_loads

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan(
        self,
        worker_rates: dict[str, float],
        component_loads: dict[str, dict[str, Any]],
    ) -> list[tuple[str, ...]]:
        budget = MIGRATION_BUDGET
        actions: list[tuple[str, ...]] = []
        self._plan_merges(worker_rates, actions, budget)
        if len(actions) < budget:
            self._plan_splits(component_loads, actions, budget)
        if len(actions) < budget:
            self._plan_migration(worker_rates, component_loads, actions)
        for action in actions:
            self.planned[action[0]] += 1
        return actions

    def _plan_merges(
        self,
        worker_rates: dict[str, float],
        actions: list[tuple[str, ...]],
        budget: int,
    ) -> None:
        """Merge split children back once the *cluster* has cooled.

        The cool signal is deliberately not the children's own load: after
        a split the parent's actors re-key over the whole candidate set,
        so lightly-loaded children are the normal steady state of a
        *successful* split. Merging on that signal resurrects the hot
        parent mid-burst and flaps split -> merge -> split. Instead the
        children stay out as long as any worker is meaningfully busy, and
        fold back only when the busiest worker idles below the merge floor
        for ``MERGE_PATIENCE_TICKS`` consecutive ticks.
        """
        floor = self.config.split_threshold * SPLIT_MERGE_RATIO
        peak = max(worker_rates.values(), default=0.0)
        for parent in sorted(self.control.split_children):
            if peak >= floor:
                self._cold_ticks[parent] = 0
                continue
            self._cold_ticks[parent] = self._cold_ticks.get(parent, 0) + 1
            if (
                self._cold_ticks[parent] >= MERGE_PATIENCE_TICKS
                and len(actions) < budget
            ):
                self._cold_ticks[parent] = 0
                actions.append(("merge", parent))

    def _plan_splits(
        self,
        component_loads: dict[str, dict[str, Any]],
        actions: list[tuple[str, ...]],
        budget: int,
    ) -> None:
        candidates = sorted(
            (
                (load["busy_rate"], name)
                for name, load in component_loads.items()
                if load["busy_rate"] > self.config.split_threshold
                and name not in self.control.split_children
                and parent_partition(name) is None
            ),
            reverse=True,
        )
        for _rate, name in candidates:
            if len(actions) >= budget:
                return
            actions.append(("split", name))

    def _plan_migration(
        self,
        worker_rates: dict[str, float],
        component_loads: dict[str, dict[str, Any]],
        actions: list[tuple[str, ...]],
    ) -> None:
        if len(worker_rates) < 2:
            return
        busiest = max(worker_rates, key=lambda wid: (worker_rates[wid], wid))
        coolest = min(worker_rates, key=lambda wid: (worker_rates[wid], wid))
        peak, trough = worker_rates[busiest], worker_rates[coolest]
        if peak <= MIN_ACTIONABLE_RATE:
            return
        if (peak - trough) / peak <= self.config.rebalance_threshold:
            return
        splitting = {action[1] for action in actions}
        hosted = sorted(
            (
                (load["busy_rate"], name)
                for name, load in component_loads.items()
                if load["worker"] == busiest and name not in splitting
            ),
            reverse=True,
        )
        if len(hosted) < 2:
            # A lone component *is* the worker's load; moving it only
            # relocates the hotspot (splitting is the cure, handled above).
            return
        gap = peak - trough
        # Largest component that fits in the gap -- moving it must not
        # just swap which worker is hottest.
        for rate, name in hosted:
            if rate <= gap:
                actions.append(("migrate", name, coolest))
                return

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run(self, actions: list[tuple[str, ...]]) -> None:
        control = self.control
        try:
            for action in actions:
                try:
                    if action[0] == "merge":
                        await control._merge_component(action[1])
                    elif action[0] == "split":
                        await control._split_component(action[1])
                    else:
                        await control._migrate_component(action[1], action[2])
                except Exception as error:  # keep the control plane alive
                    control.trace.emit(
                        "placement.error",
                        action=list(action),
                        error=repr(error),
                    )
        finally:
            self._running = False

    def stats(self) -> dict[str, Any]:
        return {
            "ticks": self.ticks,
            "planned": dict(self.planned),
            "last_action_at": self._last_action_at,
        }
