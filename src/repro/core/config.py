"""Runtime configuration.

One :class:`KarConfig` bundles every tunable the evaluation varies: broker
and store latencies (the ClusterDev / ClusterProd / Managed configurations of
Table 2), the sidecar hop cost, the failure-detection parameters (heartbeat,
session timeout), reconciliation cost coefficients, and the feature flags the
paper discusses (placement cache, cancellation, retry orchestration).

Completion evidence has one mechanism and no switch: a response or a
superseding tail call, kept in a dead queue until retention expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mq import BrokerConfig
from repro.persist import PersistenceConfig
from repro.sim import Latency

__all__ = ["KarConfig"]


@dataclass(frozen=True)
class KarConfig:
    """All timing parameters and feature flags for one application run."""

    # --- messaging (simulated Kafka) -------------------------------------
    broker: BrokerConfig = field(default_factory=BrokerConfig)

    # --- persistence (simulated Redis) ------------------------------------
    store_latency: Latency = Latency.fixed(0.0005)
    # Backend selection for the store and the broker log: in-memory by
    # default, or durable files ("sqlite" store + framed broker journal)
    # that survive a cold process restart and feed App.reopen recovery.
    persistence: PersistenceConfig = field(default_factory=PersistenceConfig)

    # --- sidecar architecture ---------------------------------------------
    # One app<->runtime HTTP hop (Section 4.1: paired processes on one node).
    sidecar_latency: Latency = Latency.fixed(0.00025)
    # Fixed bookkeeping per actor invocation (id allocation, lock handling).
    invoke_overhead: Latency = Latency.fixed(0.0002)

    # --- batched transport (router / send outbox) --------------------------
    # How long the first sender into an idle outbox lingers collecting
    # envelopes before one batched produce round trip. The 0.0 default adds no
    # simulated delay -- it still coalesces everything enqueued within the
    # same event-loop turn, preserving the unbatched latency profile --
    # while a small positive linger trades that latency for far fewer
    # produce round trips under fan-in.
    send_linger: float = 0.0
    # Upper bound on envelopes per batched produce round trip.
    send_batch_max: int = 64

    # --- feature flags: the paper's ablation switches (bench_ablation.py) ---
    placement_cache: bool = True  # Table 2 "no cache" disables this
    cancellation: bool = True  # Section 4.4: elide callees of dead callers
    orchestrate_retries: bool = True  # False = at-least-once baseline (Fig 2b)

    # --- reconciliation cost model (Section 4.3) ---------------------------
    # Leader-side work: fixed setup plus a per-catalogued-message scan cost
    # plus a per-copied-request cost. "Reconciliation time increases with the
    # number of recent messages."
    reconcile_base: Latency = Latency.fixed(0.5)
    reconcile_per_message: float = 0.002
    reconcile_per_copy: float = 0.01

    # --- actor lifecycle & memory management --------------------------------
    # Idle passivation (virtual-actor style): an instance whose mailbox has
    # been idle for this long is deactivated (``Actor.deactivate`` hook) and
    # evicted along with its mailbox; the next request transparently
    # re-activates it from persisted state. ``None`` disables passivation
    # (every activated instance stays resident forever).
    idle_passivation_timeout: float | None = None
    # Cadence of the per-component maintenance task that sweeps idle actors
    # and expired dedup evidence.
    maintenance_interval: float = 5.0
    # Extra slack added to the broker retention horizon before dedup
    # evidence (settled response ids, handled request keys) is dropped.
    # Covers delivery lag across group pauses: a record is stamped when it
    # is *consumed*, which can trail its append by a reconciliation.
    dedup_retention_slack: float = 30.0

    # --- overload control (retry-storm protection) ---------------------------
    # Master switch for the guard subsystem (ablation switch: the storm
    # benchmark measures goodput against it), one object swap: False installs
    # ``overload.Unguarded`` -- a fixed sleep when no component supports an
    # actor type, unbounded mailboxes, no breakers and no dead-lettering.
    overload_guard: bool = True
    # Token-bucket retry budget: each first attempt deposits
    # ``overload.RETRY_BUDGET_RATIO`` tokens (capped at ``burst``), each
    # retry spends one, and a dry bucket defers the retry through further
    # backoff rounds. ``floor_per_sec`` trickles tokens in on the clock so
    # recovery cannot deadlock when first-attempt traffic has stopped.
    retry_budget_burst: float = 50.0
    retry_budget_floor_per_sec: float = 2.0
    # Circuit breakers per (actor type, method): open after ``threshold``
    # consecutive execution failures, half-open after ``cooldown`` seconds
    # admitting exactly one probe. ``None`` disables breakers (the divert
    # path changes failure semantics, so it is opt-in).
    breaker_threshold: int | None = None
    breaker_cooldown: float = 30.0
    # Reconciliation redelivery cap: a stranded request that has already
    # been recovery-copied this many times is parked in the dead-letter
    # topic instead of being copied again -- the poison-pill bound that
    # ends crash-reconcile amplification loops. ``None`` keeps the paper's
    # retry-forever contract (the default).
    redelivery_limit: int | None = None
    # Mailbox admission control: pending queues beyond this depth shed
    # their oldest *retries* (recovery copies) back to the budget-paced
    # backoff path; first attempts are never shed. ``None`` = unbounded.
    mailbox_capacity: int | None = 256

    # --- worker event loops (KarApplication(workers=N), core/cluster.py) -----
    # CPU cost charged to the hosting worker's event loop per actor
    # invocation. Each worker serializes its charges on a busy horizon, so
    # with a positive cost a single worker becomes the throughput ceiling
    # and sharding components across N workers buys ~N x. The 0.0 default
    # charges nothing and adds no kernel event. None of this section applies
    # to an application without workers.
    worker_loop_cost: float = 0.0
    # Worker heartbeat cadence into the shared store; four silent intervals
    # and the application's control plane declares the worker dead and
    # re-hosts its components on the survivors.
    worker_heartbeat_interval: float = 1.0
    # How long a graceful handoff waits for the component to drain its
    # in-flight work before fencing the old incarnation anyway.
    drain_timeout: float = 30.0

    # --- adaptive placement (core/placement_ctl.py) --------------------------
    # Worker busy-rate imbalance, (max - min) / max, above which the
    # controller migrates the hottest component off the busiest worker.
    rebalance_threshold: float = 0.5
    # Minimum seconds between controller actions (hysteresis against
    # thrashing on a load signal that has not settled since the last move).
    rebalance_cooldown: float = 5.0
    # A single component whose busy rate exceeds this fraction of one
    # worker's capacity cannot be helped by migration (it saturates any
    # worker alone) and is split into sub-partitions instead.
    split_threshold: float = 0.6
    # Sub-partitions a hot component splits into.
    split_factor: int = 4
    # Half-life of the exponentially decaying load counters behind
    # KarWorker.stats() busy_seconds and the per-component load plane.
    load_halflife: float = 5.0

    # --- reminders -----------------------------------------------------------
    reminder_tick: float = 0.5

    def with_overrides(self, **overrides) -> "KarConfig":
        return replace(self, **overrides)

    @staticmethod
    def fast_test() -> "KarConfig":
        """Small latencies and an aggressive failure detector so recovery
        unit tests complete in milliseconds of simulated time."""
        return KarConfig(
            broker=BrokerConfig(
                produce_latency=Latency.fixed(0.001),
                consume_latency=Latency.fixed(0.0005),
                heartbeat_interval=0.3,
                session_timeout=1.0,
                watchdog_interval=0.1,
                rebalance_join_window=0.2,
                rebalance_sync_latency=Latency.around(0.05, 0.02),
                retention_seconds=600.0,
            ),
            store_latency=Latency.fixed(0.0005),
            reconcile_base=Latency.fixed(0.05),
            reconcile_per_message=0.0001,
            reconcile_per_copy=0.0005,
            reminder_tick=0.1,
            maintenance_interval=0.5,
            dedup_retention_slack=5.0,
            worker_heartbeat_interval=0.2,
            drain_timeout=5.0,
            rebalance_cooldown=0.5,
            load_halflife=0.5,
        )
