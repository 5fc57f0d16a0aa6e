"""Overload control: retry budgets, circuit breakers, and dead letters.

The paper's runtime retries relentlessly until success -- the right
contract for correctness, and self-inflicted DoS at scale: one poison-pill
actor or one flood of failing invocations turns every reconciliation sweep
and every placement-retry loop into an amplifying storm (RetryGuard calls
this the dominant self-inflicted outage mode). This module bounds the
amplification without weakening exactly-once for calls that do eventually
settle:

- :class:`RetryBudget` -- a token bucket in which *first attempts* deposit
  ``RETRY_BUDGET_RATIO`` tokens and every runtime retry spends one, so
  retry volume is capped at a fixed fraction of real traffic (plus a small
  time-based floor so a quiesced system can still recover);
- :class:`BackoffPolicy` -- exponential backoff with full jitter
  (``uniform(0, min(cap, base * 2^attempt))``), replacing the fixed
  placement-retry sleep and de-synchronizing retry waves;
- :class:`CircuitBreaker` -- per (actor type, method) state machine that
  opens after N consecutive execution failures, half-opens on a cooldown
  clock admitting exactly one probe, and while open diverts new
  invocations to the durable dead-letter parking lot;
- :class:`DeadLetter` -- the parked envelope with its full failure history
  and attempt timestamps, durably journaled in its own topic, replayable
  via ``KarApplication.redeliver_dead_letters`` once the fault clears.

Exactly-once survives diversion because a diverted request is *never*
marked handled: its one execution happens at replay, deduplicated by the
same (request id, step) evidence and single-placement routing that make
reconciliation copies idempotent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any

from repro.persist.framing import register_frame_type

if TYPE_CHECKING:
    from repro.core.config import KarConfig
    from repro.core.envelope import Request
    from repro.sim import Kernel

__all__ = [
    "BACKOFF",
    "BREAKER_CLOSED",
    "BREAKER_COOLDOWN",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BackoffPolicy",
    "CircuitBreaker",
    "DEAD_LETTER_PARTITION",
    "DeadLetter",
    "MAILBOX_CAPACITY",
    "OverloadGuard",
    "RETRY_BUDGET_BURST",
    "RETRY_BUDGET_FLOOR_PER_SEC",
    "RETRY_BUDGET_RATIO",
    "RetryBudget",
    "UNPLACEABLE_RETRY_DELAY",
    "Unguarded",
]

#: Single parking-lot partition inside the application's dead-letter topic.
DEAD_LETTER_PARTITION = "parked"

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with full jitter (the AWS-style variant).

    Full jitter -- ``uniform(0, bound)`` rather than ``bound +- noise`` --
    both spreads retry waves across the whole window (no synchronized
    thundering herd) and keeps the *expected* delay at half the bound.
    """

    base: float
    cap: float

    def bound(self, attempt: int) -> float:
        """The jitter window's upper edge for the given retry attempt."""
        return min(self.cap, self.base * (2.0 ** min(attempt, 32)))

    def delay(self, attempt: int, rng: Random) -> float:
        return rng.uniform(0.0, self.bound(attempt))


#: The backoff every runtime retry uses (placement re-resolution,
#: stale-route resends, shed-mailbox re-admission, and the gateway's
#: ``Retry-After`` for transient routing failures).
BACKOFF = BackoffPolicy(base=0.05, cap=2.0)

#: Retry tokens each first attempt deposits into a :class:`RetryBudget`,
#: the most it holds, and the tokens it regains a second without traffic.
RETRY_BUDGET_RATIO = 0.1
RETRY_BUDGET_BURST = 50.0
RETRY_BUDGET_FLOOR_PER_SEC = 2.0

#: Seconds an open :class:`CircuitBreaker` waits before its half-open probe.
BREAKER_COOLDOWN = 30.0

#: Bound on a mailbox's pending queue: beyond it the oldest *retries*
#: (recovery copies) are shed back to the budget-paced backoff path; first
#: attempts are never shed.
MAILBOX_CAPACITY = 256

#: The :class:`Unguarded` policy's fixed delay before re-checking for a live
#: component supporting an actor type ("KAR queues requests to unavailable
#: types separately, revisiting this queue when new components are added",
#: Section 4.3).
UNPLACEABLE_RETRY_DELAY = 0.25


class RetryBudget:
    """Token bucket capping retry amplification at a ratio of real traffic.

    First attempts are never throttled -- they only *deposit* ``ratio``
    tokens each (capped at ``burst``). Every runtime retry (placement
    re-resolve, stale-route resend, shed-mailbox re-admission) spends one
    token; when the bucket is dry the retry is deferred to another backoff
    round instead of being dropped. A small ``floor_per_sec`` trickle keeps
    recovery live when first-attempt traffic has stopped entirely.
    """

    __slots__ = (
        "_burst",
        "_floor",
        "_ratio",
        "_stamp",
        "_tokens",
        "deferred",
        "first_attempts",
        "spent",
    )

    def __init__(self, ratio: float, burst: float, floor_per_sec: float):
        self._ratio = ratio
        self._burst = burst
        self._floor = floor_per_sec
        self._tokens = burst  # start full: early recovery is never starved
        self._stamp = 0.0
        self.first_attempts = 0
        self.spent = 0
        self.deferred = 0

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(
                self._burst, self._tokens + (now - self._stamp) * self._floor
            )
            self._stamp = now

    def deposit(self, now: float) -> None:
        """Record a first attempt (never throttled; earns retry credit)."""
        tokens = self._tokens
        if now > self._stamp:  # ``_refill``, without the call
            tokens = min(self._burst, tokens + (now - self._stamp) * self._floor)
            self._stamp = now
        self._tokens = min(self._burst, tokens + self._ratio)
        self.first_attempts += 1

    def try_spend(self, now: float) -> bool:
        """Spend one retry token; False means the retry must wait."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.deferred += 1
        return False

    def balance(self, now: float) -> float:
        self._refill(now)
        return self._tokens


class _OpenBreakers:
    """How many of one application's circuit breakers are open.

    Every guard of the application shares one, and each breaker moves it on
    a transition into or out of open, so admission (``KarApi``) skips its
    scan of the components while it reads zero. Breakers of incarnations
    that died open stay counted; that only sends admission to the scan.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class CircuitBreaker:
    """Consecutive-failure breaker for one (actor type, method) key.

    closed --(threshold consecutive failures)--> open
    open --(cooldown elapses; next arrival becomes the probe)--> half_open
    half_open --(probe succeeds)--> closed
    half_open --(probe fails)--> open, with a *fresh* cooldown clock

    While open (or while a half-open probe is outstanding) arrivals are
    diverted to the dead-letter parking lot. Only the designated probe's
    outcome moves the half-open state: stragglers from before the trip are
    ignored, and concurrent arrivals during half-open never become extra
    probes.
    """

    __slots__ = (
        "_open",
        "consecutive_failures",
        "cooldown",
        "opened_at",
        "probe_id",
        "recent_failures",
        "state",
        "threshold",
        "transitions",
    )

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        open_breakers: _OpenBreakers | None = None,
    ):
        self._open = _OpenBreakers() if open_breakers is None else open_breakers
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_id: str | None = None
        #: (time, error) of the most recent failures -- attached to every
        #: dead letter this breaker diverts, so parked calls carry the
        #: evidence of *why* the circuit tripped.
        self.recent_failures: deque[tuple[float, str]] = deque(maxlen=16)
        #: (time, "from->to") state transitions (evidence surface).
        self.transitions: list[tuple[float, str]] = []

    def _move(self, state: str, now: float) -> str:
        transition = f"{self.state}->{state}"
        self.transitions.append((now, transition))
        if state == BREAKER_OPEN:
            self._open.count += 1
        elif self.state == BREAKER_OPEN:
            self._open.count -= 1
        self.state = state
        return transition

    def admit(self, request_id: str, now: float) -> bool:
        """True admits the request for execution; False diverts it.

        The transition from open to half-open happens here, on the first
        arrival after the cooldown: that request *is* the probe.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self.opened_at >= self.cooldown:
                self._move(BREAKER_HALF_OPEN, now)
                self.probe_id = request_id
                return True
            return False
        # Half-open with the probe outstanding: exactly one probe at a time.
        return False

    def record_failure(self, request_id: str, now: float, error: str) -> str | None:
        """Record an execution failure; returns the transition, if any."""
        self.recent_failures.append((now, error))
        if self.state == BREAKER_HALF_OPEN:
            if request_id == self.probe_id:
                # Failed probe: re-open with a fresh cooldown clock.
                self.probe_id = None
                self.opened_at = now
                return self._move(BREAKER_OPEN, now)
        elif self.state == BREAKER_CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.threshold:
                self.opened_at = now
                return self._move(BREAKER_OPEN, now)
        # Open: stragglers admitted before the trip change nothing.
        return None

    def record_success(self, request_id: str, now: float) -> str | None:
        if self.state == BREAKER_HALF_OPEN and request_id == self.probe_id:
            self.probe_id = None
            self.consecutive_failures = 0
            return self._move(BREAKER_CLOSED, now)
        if self.state == BREAKER_CLOSED:
            self.consecutive_failures = 0
        return None

    def reset(self, now: float) -> str | None:
        """Force-close (dead-letter redelivery declares the fault cleared)."""
        self.consecutive_failures = 0
        self.probe_id = None
        if self.state == BREAKER_CLOSED:
            return None
        return self._move(BREAKER_CLOSED, now)


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One parked invocation: the original envelope plus its evidence.

    Durably journaled in the application's dead-letter topic (its own
    topic, outside the reconciliation catalog and the retention-expiry
    paths, so parked calls outlive the message retention window).
    ``failure_history`` is the full (timestamp, error) record that led
    here; ``request`` is the unmodified original envelope, so replay is a
    plain re-route through placement and per-component dedup.
    """

    request: "Request"
    reason: str  # "breaker_open" | "redelivery_limit"
    parked_at: float
    attempts: int
    failure_history: tuple[tuple[float, str], ...]
    parked_by: str

    def describe(self) -> dict[str, Any]:
        return {
            "request_id": self.request.request_id,
            "step": self.request.step,
            "actor": str(self.request.actor),
            "method": self.request.method,
            "reason": self.reason,
            "attempts": self.attempts,
            "parked_at": self.parked_at,
            "parked_by": self.parked_by,
            "failure_history": [
                {"at": at, "error": error} for at, error in self.failure_history
            ],
        }


#: Binary-frame table id for DeadLetter (ids below 64 are runtime-reserved).
DEAD_LETTER_TYPE_ID = 6

register_frame_type(DeadLetter, DEAD_LETTER_TYPE_ID)


class OverloadGuard:
    """Per-component overload-control state (budgets, breakers, shedding).

    One guard per component incarnation; it shares the component's fate
    exactly like its dedup evidence does. Counters are the evidence
    surface aggregated into ``KarApplication.stats()["overload"]``.
    ``KarConfig.overload_guard=False`` installs :class:`Unguarded` in its
    place: every caller talks to one policy object, never to ``None``.
    """

    def __init__(
        self,
        config: "KarConfig",
        kernel: "Kernel",
        open_breakers: _OpenBreakers | None = None,
    ):
        self.kernel = kernel
        #: The application's count of open breakers, shared by its guards.
        self._open_breakers = (
            _OpenBreakers() if open_breakers is None else open_breakers
        )
        #: Bound on each mailbox's pending queue (``None`` = unbounded) and
        #: on recovery copies per stranded request (``None`` = forever).
        self.mailbox_capacity: int | None = MAILBOX_CAPACITY
        self.redelivery_limit = config.redelivery_limit
        self.budget = RetryBudget(
            RETRY_BUDGET_RATIO, RETRY_BUDGET_BURST, RETRY_BUDGET_FLOOR_PER_SEC
        )
        self.breaker_threshold = config.breaker_threshold
        self.breaker_cooldown = BREAKER_COOLDOWN
        self.breakers: dict[tuple[str, str], CircuitBreaker] = {}
        #: Requests diverted to the parking lot by an open breaker.
        self.diverted = 0
        #: Dead letters written (breaker diverts + reconciler redelivery caps).
        self.parked = 0
        #: Retries shed from over-capacity mailboxes / re-admitted later.
        self.sheds = 0
        self.shed_requeues = 0
        #: Largest pending-queue depth observed across this component's
        #: mailboxes (admission-control evidence).
        self.max_pending = 0
        #: Shed-retry attempt counts, keyed by dedup key; cleared when the
        #: request finally executes, so the dict tracks only in-flight sheds.
        self._shed_attempts: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # circuit breakers
    # ------------------------------------------------------------------
    def _breaker(self, actor_type: str, method: str) -> CircuitBreaker | None:
        if self.breaker_threshold is None:
            return None
        key = (actor_type, method)
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = self.breakers[key] = CircuitBreaker(
                self.breaker_threshold,
                self.breaker_cooldown,
                open_breakers=self._open_breakers,
            )
        return breaker

    def breaker_diverts(self, request: "Request", now: float) -> CircuitBreaker | None:
        """The breaker that diverts ``request``, or None to admit it."""
        if self.breaker_threshold is None:
            return None
        breaker = self.breakers.get((request.actor.type, request.method))
        if breaker is None:
            breaker = self._breaker(request.actor.type, request.method)
        # A closed breaker admits without the call.
        if breaker.state == BREAKER_CLOSED or breaker.admit(request.request_id, now):
            return None
        self.diverted += 1
        return breaker

    def record_failure(self, request: "Request", error: str, now: float) -> str | None:
        breaker = self._breaker(request.actor.type, request.method)
        if breaker is None:
            return None
        return breaker.record_failure(request.request_id, now, error)

    def record_success(self, request: "Request", now: float) -> str | None:
        if self.breaker_threshold is None:
            return None
        breaker = self.breakers.get((request.actor.type, request.method))
        if breaker is None:
            breaker = self._breaker(request.actor.type, request.method)
        if breaker.state == BREAKER_CLOSED:
            # ``CircuitBreaker.record_success`` for a closed breaker.
            breaker.consecutive_failures = 0
            return None
        return breaker.record_success(request.request_id, now)

    def reset_breakers(self, now: float) -> int:
        """Force-close every breaker (redelivery declares faults cleared)."""
        reset = 0
        for breaker in self.breakers.values():
            if breaker.reset(now) is not None:
                reset += 1
        return reset

    # ------------------------------------------------------------------
    # retry pacing (budget + jittered backoff)
    # ------------------------------------------------------------------
    def first_attempt(self, now: float) -> None:
        """A first attempt is never throttled, and it earns retry credit."""
        self.budget.deposit(now)

    async def pace_unplaceable(self, attempt: int) -> None:
        """Pace a retry that found no live component for the actor type."""
        await self.pace_retry(attempt)

    async def pace_retry(self, attempt: int) -> None:
        """Sleep the jittered backoff for ``attempt``, then spend one retry
        token -- deferring through further backoff rounds while the budget
        is dry. First attempts never pass through here."""
        while True:
            await self.kernel.sleep(BACKOFF.delay(attempt, self.kernel.rng))
            if self.budget.try_spend(self.kernel.now):
                return
            attempt += 1

    # ------------------------------------------------------------------
    # mailbox shedding bookkeeping
    # ------------------------------------------------------------------
    def note_shed(self, dedup_key: tuple[str, int]) -> int:
        """Record one shed of ``dedup_key``; returns its shed count (used
        as the backoff attempt number, so repeat sheds back off further)."""
        count = self._shed_attempts.get(dedup_key, 0) + 1
        self._shed_attempts[dedup_key] = count
        self.sheds += 1
        return count

    def clear_shed(self, dedup_key: tuple[str, int]) -> None:
        self._shed_attempts.pop(dedup_key, None)

    def observe_pending(self, depth: int) -> None:
        if depth > self.max_pending:
            self.max_pending = depth

    # ------------------------------------------------------------------
    # evidence surface
    # ------------------------------------------------------------------
    def stats(self, now: float) -> dict[str, Any]:
        states = {BREAKER_CLOSED: 0, BREAKER_OPEN: 0, BREAKER_HALF_OPEN: 0}
        transitions = 0
        for breaker in self.breakers.values():
            states[breaker.state] += 1
            transitions += len(breaker.transitions)
        return {
            "first_attempts": self.budget.first_attempts,
            "retries_spent": self.budget.spent,
            "retries_deferred": self.budget.deferred,
            "budget_balance": round(self.budget.balance(now), 3),
            "breakers_closed": states[BREAKER_CLOSED],
            "breakers_open": states[BREAKER_OPEN],
            "breakers_half_open": states[BREAKER_HALF_OPEN],
            "breaker_transitions": transitions,
            "diverted": self.diverted,
            "parked": self.parked,
            "mailbox_sheds": self.sheds,
            "shed_requeues": self.shed_requeues,
            "max_pending": self.max_pending,
        }


class Unguarded(OverloadGuard):
    """The ``overload_guard=False`` policy (the storm benchmark's baseline):
    the paper's relentless retry. No budget and no backoff -- a retry waits
    the fixed :data:`UNPLACEABLE_RETRY_DELAY` when no live component supports
    the actor type and is immediate otherwise -- no breakers, no redelivery
    cap, unbounded mailboxes, and nothing to report."""

    def __init__(
        self,
        config: "KarConfig",
        kernel: "Kernel",
        open_breakers: _OpenBreakers | None = None,
    ):
        super().__init__(config, kernel, open_breakers)
        self.breaker_threshold = None
        self.mailbox_capacity = self.redelivery_limit = None

    def first_attempt(self, now: float) -> None:
        pass

    async def pace_unplaceable(self, attempt: int) -> None:
        await self.kernel.sleep(UNPLACEABLE_RETRY_DELAY)

    async def pace_retry(self, attempt: int) -> None:
        pass

    def stats(self, now: float) -> dict[str, Any]:
        return {}
