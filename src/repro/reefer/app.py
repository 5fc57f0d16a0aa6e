"""Assembly of the Reefer application on the KAR runtime.

Reproduces the deployment of Figure 5b: Order / Voyage / Depot actors on a
replicated "actors" server, the singleton actors on a replicated
"singletons" server, plus a WebAPI component and a simulator component. The
fault-injection harness kills "victim" components (actors/singletons
replicas) and never the simulators, exactly like the paper's victim nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import KarApplication, KarConfig, actor_proxy
from repro.kvstore import KVStore
from repro.reefer.anomaly import AnomalyRouter
from repro.reefer.depot import INVENTORY_KEY, Depot
from repro.reefer.domain import PORTS, container_id
from repro.reefer.managers import (
    SERVICES,
    DepotManager,
    OrderManager,
    ScheduleManager,
    VoyageManager,
)
from repro.reefer.metrics import ReeferMetrics
from repro.reefer.order import Order
from repro.reefer.simulators import (
    AnomalySimulator,
    OrderSimulator,
    ShipSimulator,
)
from repro.reefer.voyage import Voyage
from repro.reefer.webapi import WebAPIService
from repro.sim import Kernel, Latency

__all__ = ["ReeferApplication", "ReeferConfig"]

ACTOR_TYPES = ("Order", "Voyage", "Depot")
SINGLETON_TYPES = (
    "OrderManager",
    "ScheduleManager",
    "VoyageManager",
    "DepotManager",
    "AnomalyRouter",
)


@dataclass(frozen=True)
class ReeferConfig:
    """Workload knobs (the BrowserUI sliders of Section 5)."""

    order_rate: float = 1.0  # orders per simulated second
    anomaly_rate: float = 0.05  # anomalies per simulated second
    containers_per_depot: int = 80
    max_order_quantity: int = 3
    ship_tick: float = 2.0
    replicas: int = 2  # replicas of each victim component kind


class ReeferApplication:
    """The full application: infrastructure, actors, simulators, metrics."""

    def __init__(
        self,
        kernel: Kernel,
        kar_config: KarConfig | None = None,
        config: ReeferConfig | None = None,
    ):
        self.kernel = kernel
        self.config = config or ReeferConfig()
        self.app = KarApplication(kernel, kar_config, name="reefer")
        self.metrics = ReeferMetrics(kernel)

        for actor_class in (
            Order, Voyage, Depot, OrderManager, ScheduleManager,
            VoyageManager, DepotManager, AnomalyRouter,
        ):
            self.app.register_actor(actor_class)

        # External services (fenced on component failure).
        self.webapi = self.app.register_external_service(
            WebAPIService(kernel)
        )
        self.inventory = self.app.register_external_service(
            KVStore(kernel, Latency.fixed(0.0005))
        )
        SERVICES["webapi"] = self.webapi
        SERVICES["inventory"] = self.inventory

        self.total_containers = 0
        self._seed_inventory()

        # Victim components (Figure 5b's replicated servers).
        self.victims: list[str] = []
        for index in range(self.config.replicas):
            name = f"actors-{index}"
            self.app.add_component(name, ACTOR_TYPES)
            self.victims.append(name)
        for index in range(self.config.replicas):
            name = f"singletons-{index}"
            self.app.add_component(name, SINGLETON_TYPES)
            self.victims.append(name)

        # The simulator component is never killed (Section 6.1).
        self.simulator_component = self.app.add_component("simulators")
        self.order_simulator = OrderSimulator(
            self.simulator_component,
            self.metrics,
            rate=self.config.order_rate,
            max_quantity=self.config.max_order_quantity,
        )
        self.ship_simulator = ShipSimulator(
            self.simulator_component, self.metrics, tick=self.config.ship_tick
        )
        self.anomaly_simulator = AnomalySimulator(
            self.simulator_component, self.inventory,
            rate=self.config.anomaly_rate,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _seed_inventory(self) -> None:
        for port in PORTS:
            for index in range(self.config.containers_per_depot):
                cid = container_id(port, index)
                self.inventory.backend.hset(INVENTORY_KEY, cid, ("depot", port))
                self.total_containers += 1

    def start(self) -> "ReeferApplication":
        self.app.settle()
        self.order_simulator.start()
        self.ship_simulator.start()
        self.anomaly_simulator.start()
        return self

    def run_for(self, seconds: float) -> None:
        self.kernel.run(until=self.kernel.now + seconds)

    def gateway(self, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """The HTTP serving edge for this deployment (Figure 5a's WebAPI)."""
        from repro.reefer.webapi import ReeferWebAPI

        return ReeferWebAPI(self, host=host, port=port, **kwargs)

    def stop_workload(self) -> None:
        self.order_simulator.stop()
        self.anomaly_simulator.stop()

    def drain(self, max_wait: float = 300.0, idle_for: float = 10.0) -> bool:
        """Stop generating orders, then run until in-flight work settles."""
        self.stop_workload()
        deadline = self.kernel.now + max_wait
        while self.kernel.now < deadline:
            if not self.metrics.in_flight and not self.app.coordinator.paused:
                self.kernel.run(until=self.kernel.now + idle_for)
                if not self.metrics.in_flight:
                    return True
            self.kernel.run(until=self.kernel.now + 2.0)
        return not self.metrics.in_flight

    # ------------------------------------------------------------------
    # failure injection (the harness drives these)
    # ------------------------------------------------------------------
    def kill(self, component_name: str) -> None:
        self.app.kill_component(component_name)

    def restart(self, component_name: str) -> None:
        self.app.restart_component(component_name)

    # ------------------------------------------------------------------
    # ground-truth accessors for the invariant checker
    # ------------------------------------------------------------------
    def order_statuses(self) -> dict:
        return self._call_singleton("OrderManager", "statuses")

    def order_violations(self) -> list:
        return self._call_singleton("OrderManager", "violations")

    def voyage_stats(self) -> dict:
        return self._call_singleton("VoyageManager", "stats")

    def depot_stats(self) -> dict:
        return self._call_singleton("DepotManager", "stats")

    def container_locations(self) -> dict:
        return dict(self.inventory.backend.hgetall(INVENTORY_KEY))

    def _call_singleton(self, actor_type: str, method: str):
        component = self.simulator_component
        task = self.kernel.spawn(
            component.invoke(
                None, actor_proxy(actor_type, "singleton"), method, (), True
            ),
            component.process,
            name=f"inspect:{actor_type}.{method}",
        )
        return self.kernel.run_until_complete(task, timeout=600.0)
