"""Load-aware placement control (the adaptive half of the scale-out story).

Hosting by count leaves one hot component pinning a single worker loop under
zipfian traffic while the rest idle. Each control tick closes the loop:

- the **load plane**: sample every live worker's decaying busy window and
  per-component load from its :class:`~repro.core.cluster.WorkerLoop`; the
  last sample is ``stats("placement")["load"]``;
- the **controller**: plan at most one action from that sample, the first
  of these that applies, with hysteresis (``REBALANCE_COOLDOWN``) so it
  reacts to sustained skew, not noise:

  * **merge** split children back into their parent once the busiest
    worker has idled below the merge floor for ``MERGE_PATIENCE_TICKS``
    consecutive ticks (the skew subsided cluster-wide);
  * **split** a component whose own busy rate exceeds ``SPLIT_THRESHOLD``
    into ``SPLIT_FACTOR`` children -- it saturates any single worker, so no
    migration can help it;
  * **migrate** the hottest movable component off the busiest worker when
    worker imbalance ``(max - min) / max`` exceeds
    ``REBALANCE_THRESHOLD``.

The policy is these module constants, not configuration. A static cluster
runs no controller: ``app.control.placement_ctl = None`` stops the ticks
and ``stats("placement")`` reports no controller and no load sample.

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

#: Worker busy-rate imbalance, ``(max - min) / max``, above which the hottest
#: movable component migrates off the busiest worker.
REBALANCE_THRESHOLD = 0.6

#: Minimum seconds between controller actions. It must outlast the load
#: signal's lag (a few half-lives): acting faster reads the last imbalance
#: as the current one and over-corrects into a migration spiral.
REBALANCE_COOLDOWN = 1.2

#: A component whose own busy rate exceeds this fraction of one worker
#: saturates any worker alone; it splits instead of migrating.
SPLIT_THRESHOLD = 0.35

#: Sub-partitions a hot component splits into.
SPLIT_FACTOR = 8

#: Half-life (seconds) of the decaying busy and call windows behind
#: ``KarWorker.stats()`` ``busy_seconds`` and the per-component load plane.
LOAD_HALFLIFE = 0.4

#: Consecutive cold ticks before split children merge back; patience keeps
#: a briefly idle hot component from flapping split -> merge -> split.
MERGE_PATIENCE_TICKS = 4

#: Merge hysteresis: split children fold back once the busiest worker stays
#: below ``SPLIT_THRESHOLD * SPLIT_MERGE_RATIO``.
SPLIT_MERGE_RATIO = 0.25

#: Ignore imbalance while the busiest worker is under this busy rate: an
#: almost-idle cluster has nothing worth paying a handoff for.
MIN_ACTIONABLE_RATE = 0.2


class PlacementController:
    """Plans load-driven migrations/splits/merges for one control plane."""

    def __init__(self, control: "ControlPlane"):
        self.control = control
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
        if self._running or now - self._last_action_at < REBALANCE_COOLDOWN:
            return
        action = (
            self._plan_merge(worker_rates)
            or self._plan_split(component_loads)
            or self._plan_migration(worker_rates, component_loads)
        )
        if action is None:
            return
        self.planned[action[0]] += 1
        self._last_action_at = now
        self._running = True
        self.control.kernel.spawn(
            self._run(action),
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
    # planning: each planner returns its action or None
    # ------------------------------------------------------------------
    def _plan_merge(self, worker_rates: dict[str, float]) -> tuple[str, ...] | None:
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
        floor = SPLIT_THRESHOLD * SPLIT_MERGE_RATIO
        peak = max(worker_rates.values(), default=0.0)
        action = None
        for parent in sorted(self.control.split_children):
            if peak >= floor:
                self._cold_ticks[parent] = 0
                continue
            self._cold_ticks[parent] = self._cold_ticks.get(parent, 0) + 1
            if self._cold_ticks[parent] >= MERGE_PATIENCE_TICKS and action is None:
                self._cold_ticks[parent] = 0
                action = ("merge", parent)
        return action

    def _plan_split(
        self, component_loads: dict[str, dict[str, Any]]
    ) -> tuple[str, ...] | None:
        hottest = max(
            (
                (load["busy_rate"], name)
                for name, load in component_loads.items()
                if load["busy_rate"] > SPLIT_THRESHOLD
                and name not in self.control.split_children
                and parent_partition(name) is None
            ),
            default=None,
        )
        return None if hottest is None else ("split", hottest[1])

    def _plan_migration(
        self,
        worker_rates: dict[str, float],
        component_loads: dict[str, dict[str, Any]],
    ) -> tuple[str, ...] | None:
        if len(worker_rates) < 2:
            return None
        busiest = max(worker_rates, key=lambda wid: (worker_rates[wid], wid))
        coolest = min(worker_rates, key=lambda wid: (worker_rates[wid], wid))
        peak, trough = worker_rates[busiest], worker_rates[coolest]
        if peak <= MIN_ACTIONABLE_RATE or (peak - trough) / peak <= REBALANCE_THRESHOLD:
            return None
        hosted = sorted(
            (
                (load["busy_rate"], name)
                for name, load in component_loads.items()
                if load["worker"] == busiest
            ),
            reverse=True,
        )
        if len(hosted) < 2:
            # A lone component *is* the worker's load; moving it only
            # relocates the hotspot (splitting is the cure, handled above).
            return None
        gap = peak - trough
        # Largest component that fits in the gap -- moving it must not
        # just swap which worker is hottest.
        for rate, name in hosted:
            if rate <= gap:
                return ("migrate", name, coolest)
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run(self, action: tuple[str, ...]) -> None:
        control = self.control
        await control._acquire_handoff_gate()
        try:
            if action[0] == "merge":
                await control._merge_component(action[1])
            elif action[0] == "split":
                await control._split_component(action[1], SPLIT_FACTOR)
            else:
                await control._move_component(action[1], action[2])
        except Exception as error:  # keep the control plane alive
            control.trace.emit(
                "placement.error", action=list(action), error=repr(error)
            )
        finally:
            control._release_handoff_gate()
            self._running = False

    def stats(self) -> dict[str, Any]:
        return {
            "ticks": self.ticks,
            "planned": dict(self.planned),
            "last_action_at": self._last_action_at,
        }
