"""Event simulators driving the Reefer application (Section 5).

Order, ship and anomaly simulators run on a dedicated component that the
fault-injection harness never kills (like the paper's simulator node), so
submitted orders are never lost client-side and invariants stay checkable.
"""

from __future__ import annotations

from repro.core import ActorMethodError, Component, actor_proxy
from repro.core.errors import KarError
from repro.reefer.domain import ROUTES, OrderSpec
from repro.reefer.metrics import ReeferMetrics

__all__ = ["AnomalySimulator", "OrderSimulator", "ShipSimulator"]

_ORDER_MANAGER = actor_proxy("OrderManager", "singleton")
_SCHEDULE_MANAGER = actor_proxy("ScheduleManager", "singleton")
_ANOMALY_ROUTER = actor_proxy("AnomalyRouter", "singleton")


class OrderSimulator:
    """Generates client orders at a configurable rate; measures latency."""

    def __init__(
        self,
        component: Component,
        metrics: ReeferMetrics,
        rate: float = 1.0,
        max_quantity: int = 3,
    ):
        self.component = component
        self.metrics = metrics
        self.rate = rate
        self.max_quantity = max_quantity
        self.running = False
        self._sequence = 0

    def start(self) -> None:
        self.running = True
        kernel = self.component.kernel
        kernel.spawn(
            self._generate(), self.component.process, name="order-simulator"
        )

    def stop(self) -> None:
        self.running = False

    async def _generate(self) -> None:
        kernel = self.component.kernel
        while self.running:
            await kernel.sleep(kernel.rng.expovariate(self.rate))
            if not self.running:
                return
            self._sequence += 1
            order_id = f"O-{self._sequence:06d}"
            route = kernel.rng.choice(ROUTES)
            spec = OrderSpec(
                customer=f"customer-{kernel.rng.randrange(100):02d}",
                product="bananas",
                origin=route.origin,
                destination=route.destination,
                quantity=kernel.rng.randint(1, self.max_quantity),
            )
            kernel.spawn(
                self._submit(order_id, spec),
                self.component.process,
                name=f"submit:{order_id}",
            )

    async def _submit(self, order_id: str, spec: OrderSpec) -> None:
        self.metrics.order_submitted(order_id)
        payload = {
            "order_id": order_id,
            "customer": spec.customer,
            "product": spec.product,
            "origin": spec.origin,
            "destination": spec.destination,
            "quantity": spec.quantity,
        }
        try:
            result = await self.component.invoke(
                None, _ORDER_MANAGER, "book", (payload,), True
            )
            self.metrics.order_completed(order_id, result.get("status", "ok"))
        except ActorMethodError as error:
            self.metrics.order_completed(order_id, f"error:{error.message}")
        except KarError:
            self.metrics.order_completed(order_id, "cancelled")


class ShipSimulator:
    """Departs and arrives voyages on schedule; broadcasts positions."""

    def __init__(self, component: Component, metrics: ReeferMetrics,
                 tick: float = 2.0, horizon: float = 90.0):
        self.component = component
        self.metrics = metrics
        self.tick = tick
        self.horizon = horizon
        self.running = False
        self.departed: set[str] = set()
        self.arrived: set[str] = set()
        #: The earliest arrival not yet handled: the schedule is asked only
        #: for plans from here on, not the whole voyage history.
        self.since = 0.0

    def start(self) -> None:
        self.running = True
        self.component.kernel.spawn(
            self._drive(), self.component.process, name="ship-simulator"
        )

    def stop(self) -> None:
        self.running = False

    async def _drive(self) -> None:
        kernel = self.component.kernel
        while self.running:
            await kernel.sleep(self.tick)
            if not self.running:
                return
            now = kernel.now
            until = now + self.horizon
            try:
                plans = await self.component.invoke(
                    None, _SCHEDULE_MANAGER, "schedule_horizon",
                    (until, self.since), True,
                )
            except KarError:
                continue
            for plan in plans:
                voyage_id = plan["voyage_id"]
                voyage = actor_proxy("Voyage", voyage_id)
                try:
                    if plan["departure"] <= now and voyage_id not in self.departed:
                        await self.component.invoke(
                            None, voyage, "depart", (), True
                        )
                        self.departed.add(voyage_id)
                        self.metrics.departures_seen += 1
                    elif (
                        voyage_id in self.departed
                        and voyage_id not in self.arrived
                        and plan["arrival"] > now
                    ):
                        fraction = (now - plan["departure"]) / (
                            plan["arrival"] - plan["departure"]
                        )
                        await self.component.invoke(
                            None, voyage, "position",
                            (round(min(max(fraction, 0.0), 1.0), 3),), True,
                        )
                    if plan["arrival"] <= now and voyage_id not in self.arrived:
                        if voyage_id not in self.departed:
                            await self.component.invoke(
                                None, voyage, "depart", (), True
                            )
                            self.departed.add(voyage_id)
                            self.metrics.departures_seen += 1
                        await self.component.invoke(
                            None, voyage, "arrive", (), True
                        )
                        self.arrived.add(voyage_id)
                        self.metrics.arrivals_seen += 1
                except KarError:
                    continue  # outage window: retry on the next tick
            # A plan not listed yet departs after ``until``, so arrives later.
            pending = [plan for plan in plans if plan["voyage_id"] not in self.arrived]
            self.since = min((plan["arrival"] for plan in pending), default=until)


class AnomalySimulator:
    """Injects refrigeration anomalies on random known containers."""

    def __init__(self, component: Component, inventory, rate: float = 0.05):
        self.component = component
        self.inventory = inventory
        self.rate = rate
        self.running = False
        self.injected: list[str] = []

    def start(self) -> None:
        if self.rate <= 0:
            return
        self.running = True
        self.component.kernel.spawn(
            self._inject(), self.component.process, name="anomaly-simulator"
        )

    def stop(self) -> None:
        self.running = False

    async def _inject(self) -> None:
        kernel = self.component.kernel
        client = self.inventory.client(self.component.member_id)
        while self.running:
            await kernel.sleep(kernel.rng.expovariate(self.rate))
            if not self.running:
                return
            locations = await client.hgetall("containers")
            candidates = sorted(
                cid
                for cid, loc in locations.items()
                if tuple(loc) != ("damaged",)
            )
            if not candidates:
                continue
            container = kernel.rng.choice(candidates)
            try:
                await self.component.invoke(
                    None, _ANOMALY_ROUTER, "anomaly", (container,), True
                )
                self.injected.append(container)
            except KarError:
                continue
