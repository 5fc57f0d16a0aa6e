"""Application-level invariants checked across fault injection (Section 6.1).

The paper validates that across 1,000 node failures: submitted orders are
never lost; ships arrive and depart as scheduled carrying their expected
cargo; ships and containers neither disappear nor appear out of thin air;
and simulation time continuously advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.reefer.domain import OrderState

if TYPE_CHECKING:
    from repro.reefer.app import ReeferApplication

__all__ = ["InvariantReport", "check_invariants"]


@dataclass
class InvariantReport:
    checked: int = 0
    violations: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.violations


def check_invariants(
    reefer: "ReeferApplication", require_terminal: bool = False
) -> InvariantReport:
    """Check every invariant; call with the workload stopped.

    With ``require_terminal`` every submitted order must have reached a
    terminal state (use after a drain period); otherwise non-terminal
    orders must at least be *known* to the OrderManager or still in flight.
    """
    report = InvariantReport()
    app = reefer.app
    metrics = reefer.metrics

    # ------------------------------------------------------------------
    # 1. No submitted order is lost.
    # ------------------------------------------------------------------
    report.checked += 1
    statuses = reefer.order_statuses()
    in_flight = set(metrics.in_flight)
    for order_id in metrics.submitted:
        if order_id in statuses:
            continue
        if order_id in in_flight:
            continue  # request still being processed (or retried)
        record = metrics.orders[order_id]
        if record.status and record.status.startswith("error"):
            continue  # rejected orders carry their own terminal record
        report.violations.append(f"order {order_id} lost (unknown to manager)")
    if require_terminal:
        terminal = (*OrderState.TERMINAL, "rejected")
        stuck = [
            order_id
            for order_id, status in statuses.items()
            if status not in terminal
        ]
        if stuck:
            report.violations.append(
                f"{len(stuck)} orders not terminal after drain: {stuck[:5]}"
            )

    # No illegal terminal transitions were recorded by the manager.
    report.checked += 1
    violations = reefer.order_violations()
    for item in violations:
        report.violations.append(f"illegal transition: {item}")

    # ------------------------------------------------------------------
    # 2. Containers are conserved (none created or destroyed).
    # ------------------------------------------------------------------
    report.checked += 1
    locations = reefer.container_locations()
    if len(locations) != reefer.total_containers:
        report.violations.append(
            f"container count changed: {len(locations)} != "
            f"{reefer.total_containers}"
        )
    valid_heads = {"depot", "order", "damaged"}
    for container, location in locations.items():
        if tuple(location)[0] not in valid_heads:
            report.violations.append(
                f"container {container} in invalid location {location!r}"
            )

    # ------------------------------------------------------------------
    # 3. Ships depart before arriving; arrivals follow the schedule.
    # ------------------------------------------------------------------
    report.checked += 1
    voyage_stats = reefer.voyage_stats()
    departed = voyage_stats.get("departed", {})
    arrived = voyage_stats.get("arrived", {})
    for voyage_id, arrival_time in arrived.items():
        departure_time = departed.get(voyage_id)
        if departure_time is None:
            report.violations.append(
                f"voyage {voyage_id} arrived without departing"
            )
        elif arrival_time < departure_time:
            report.violations.append(
                f"voyage {voyage_id} arrived before departing"
            )

    # ------------------------------------------------------------------
    # 4. Simulation time advances (order completions are causal).
    # ------------------------------------------------------------------
    report.checked += 1
    for record in metrics.completed:
        if record.completed_at < record.submitted_at:
            report.violations.append(
                f"order {record.order_id} completed before submission"
            )

    report.details = {
        "orders_submitted": len(metrics.submitted),
        "orders_completed": len(metrics.completed),
        "orders_in_flight": len(in_flight),
        "statuses": _tally(statuses),
        "containers": len(locations),
        "voyages_departed": len(departed),
        "voyages_arrived": len(arrived),
    }
    return report


def _tally(statuses: dict) -> dict:
    counts: dict[str, int] = {}
    for status in statuses.values():
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))
