"""The Container Shipping ("Reefer") application of Section 5.

A maritime shipping company: clients book orders for temperature-sensitive
goods on scheduled ship voyages; refrigerated containers are allocated from
port depots; ships depart, broadcast positions, and arrive; containers can
suffer refrigeration anomalies triggering business logic that depends on
where the container is.

The core business logic is implemented as KAR actors (Figure 5a): ``Order``,
``Voyage``, ``Depot``, the ``AnomalyRouter`` singleton and the
``OrderManager`` / ``VoyageManager`` / ``DepotManager`` / ``ScheduleManager``
singletons. Order booking follows Figure 6: a tail-call chain spanning five
actor types with one synchronous reentrant sub-orchestration (notifying the
WebAPI) and one asynchronous tell (updating the ScheduleManager).

Simulators (order / ship / anomaly) drive the application from a component
that the fault-injection harness never kills, so application-level
invariants (no lost orders, conservation of containers, schedule adherence)
remain checkable across failures.
"""

from repro.reefer.app import ReeferApplication, ReeferConfig
from repro.reefer.domain import OrderSpec, OrderState, VoyageState
from repro.reefer.invariants import check_invariants
from repro.reefer.metrics import ReeferMetrics

__all__ = [
    "OrderSpec",
    "OrderState",
    "ReeferApplication",
    "ReeferConfig",
    "ReeferMetrics",
    "VoyageState",
    "check_invariants",
]
