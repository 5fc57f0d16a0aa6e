"""Singleton manager actors: OrderManager, ScheduleManager, VoyageManager,
DepotManager.

Every method is written to be *retry-safe*: state transitions are keyed by
stable ids (order / voyage ids supplied by the caller), so re-executing an
interrupted method converges instead of duplicating effects -- the
recovery-conscious discipline the paper's programming model enables.
"""

from __future__ import annotations

from repro.core import Actor, actor_proxy
from repro.reefer.domain import ROUTES, OrderState, Route, voyage_plan

__all__ = ["DepotManager", "OrderManager", "ScheduleManager", "VoyageManager"]

#: External services are injected at application assembly time.
SERVICES: dict = {}


class OrderManager(Actor):
    """Tracks every order's lifecycle; entry point of the booking workflow
    (Figure 6): ``book`` tail-calls into the Order actor's chain."""

    async def book(self, ctx, spec: dict):
        """Root of the Figure 6 workflow. ``spec`` carries a client-chosen
        ``order_id`` so retries of ``book`` are idempotent."""
        order_id = spec["order_id"]
        await ctx.state.set(order_id, OrderState.PENDING)
        return ctx.tail_call(
            actor_proxy("Order", order_id), "create", spec
        )

    async def order_accepted(self, ctx, order_id: str):
        """The reentrant sub-orchestration target: called synchronously by
        Order.booked while the chain holds the order's stack; notifies the
        WebAPI (an external state update -- a shaded box in Figure 6)."""
        webapi = ctx.external(SERVICES["webapi"])
        await webapi.post("order-accepted", {"order_id": order_id})
        return "accepted"

    async def order_booked(self, ctx, order_id: str, voyage_id: str,
                           containers: list):
        await self._transition(ctx, order_id, OrderState.BOOKED)
        return {
            "order_id": order_id,
            "voyage_id": voyage_id,
            "containers": list(containers),
            "status": OrderState.BOOKED,
        }

    async def order_departed(self, ctx, order_id: str):
        await self._transition(ctx, order_id, OrderState.INTRANSIT)

    async def order_delivered(self, ctx, order_id: str):
        await self._transition(ctx, order_id, OrderState.DELIVERED)
        return {"order_id": order_id, "status": OrderState.DELIVERED}

    async def order_spoiled(self, ctx, order_id: str):
        await self._transition(ctx, order_id, OrderState.SPOILED)

    async def order_rejected(self, ctx, order_id: str, reason: str):
        await self._transition(ctx, order_id, "rejected")
        return {"order_id": order_id, "status": "rejected", "reason": reason}

    async def _transition(self, ctx, order_id: str, status: str) -> None:
        """Record a transition, flagging illegal terminal->terminal moves
        (the invariant checker reads the violation log)."""
        current = await ctx.state.get(order_id)
        terminal = (*OrderState.TERMINAL, "rejected")
        if current in terminal and status != current:
            violations = await ctx.state.get("_violations", [])
            violations = list(violations) + [
                {"order_id": order_id, "from": current, "to": status}
            ]
            await ctx.state.set("_violations", violations)
            return
        await ctx.state.set(order_id, status)

    async def statuses(self, ctx):
        everything = await ctx.state.get_all()
        return {
            key: value
            for key, value in everything.items()
            if not key.startswith("_")
        }

    async def violations(self, ctx):
        return await ctx.state.get("_violations", [])


class ScheduleManager(Actor):
    """Owns the sailing schedule: deterministic voyage plans per route."""

    FIRST_DEPARTURE = 20.0  # seconds after simulation start

    async def find_voyage(self, ctx, origin: str, destination: str,
                          quantity: int, after: float):
        """Earliest plan on the route departing after ``after`` with spare
        capacity (as last told to us); extends the schedule as needed.
        Retries may legitimately pick a later voyage -- decisions are
        allowed to differ across attempts (Section 1)."""
        route = _route(origin, destination)
        if route is None:
            raise ValueError(f"no route {origin} -> {destination}")
        booked = await ctx.state.get("booked", {})
        count = await ctx.state.get(f"count:{origin}:{destination}", 0)
        # No earlier sailing departs after ``after``; capped at ``count``,
        # every ordinal from the stored count on is still written.
        ordinal = min(count, _ordinal_at(route, after - self.FIRST_DEPARTURE))
        while True:
            if ordinal >= count:
                count = ordinal + 1
                await ctx.state.set(f"count:{origin}:{destination}", count)
            plan = voyage_plan(route, ordinal, self.FIRST_DEPARTURE)
            if plan["departure"] > after and (
                booked.get(plan["voyage_id"], 0) + quantity <= plan["capacity"]
            ):
                return plan
            ordinal += 1
            if ordinal > 10_000:  # pragma: no cover - runaway guard
                raise RuntimeError("schedule exhausted")

    async def voyage_booked(self, ctx, voyage_id: str, quantity: int,
                            order_id: str):
        """Async stats update (the dotted tell in Figure 6). Keyed by order
        id so re-delivered updates stay idempotent."""
        seen = await ctx.state.get("seen", {})
        if order_id in seen:
            return
        seen = dict(seen)
        seen[order_id] = voyage_id
        booked = dict(await ctx.state.get("booked", {}))
        booked[voyage_id] = booked.get(voyage_id, 0) + quantity
        await ctx.state.set("booked", booked)
        await ctx.state.set("seen", seen)

    async def schedule_horizon(self, ctx, until: float, since: float):
        """Plans departing by ``until`` and arriving from ``since`` on."""
        plans = []
        for route in ROUTES:
            ordinal = _ordinal_at(
                route, since - route.transit_seconds - self.FIRST_DEPARTURE
            )
            while True:
                plan = voyage_plan(route, ordinal, self.FIRST_DEPARTURE)
                if plan["departure"] > until:
                    break
                if plan["arrival"] >= since:
                    plans.append(plan)
                ordinal += 1
        key = "count:{}:{}"
        for route in ROUTES:
            horizon_count = max(
                0, int((until - self.FIRST_DEPARTURE) // route.cadence_seconds) + 1
            )
            existing = await ctx.state.get(
                key.format(route.origin, route.destination), 0
            )
            if horizon_count > existing:
                await ctx.state.set(
                    key.format(route.origin, route.destination), horizon_count
                )
        return plans


def _ordinal_at(route: Route, offset: float) -> int:
    """The last ordinal departing at most ``offset`` after the first, or 0."""
    return max(0, int(offset // route.cadence_seconds))


class VoyageManager(Actor):
    """Global voyage statistics (departures, arrivals, positions)."""

    async def voyage_departed(self, ctx, voyage_id: str, when: float):
        departed = dict(await ctx.state.get("departed", {}))
        departed.setdefault(voyage_id, when)
        await ctx.state.set("departed", departed)

    async def voyage_arrived(self, ctx, voyage_id: str, when: float):
        arrived = dict(await ctx.state.get("arrived", {}))
        arrived.setdefault(voyage_id, when)
        await ctx.state.set("arrived", arrived)

    async def position(self, ctx, voyage_id: str, fraction: float):
        positions = dict(await ctx.state.get("positions", {}))
        positions[voyage_id] = fraction
        await ctx.state.set("positions", positions)

    async def stats(self, ctx):
        return {
            "departed": await ctx.state.get("departed", {}),
            "arrived": await ctx.state.get("arrived", {}),
            "positions": await ctx.state.get("positions", {}),
        }


class DepotManager(Actor):
    """Global container statistics (allocations, returns, damage)."""

    async def containers_moved(self, ctx, port: str, count: int, kind: str):
        moves = dict(await ctx.state.get("moves", {}))
        key = f"{port}:{kind}"
        moves[key] = moves.get(key, 0) + count
        await ctx.state.set("moves", moves)

    async def container_damaged(self, ctx, container: str, port: str):
        damaged = dict(await ctx.state.get("damaged", {}))
        damaged.setdefault(container, port)
        await ctx.state.set("damaged", damaged)

    async def stats(self, ctx):
        return {
            "moves": await ctx.state.get("moves", {}),
            "damaged": await ctx.state.get("damaged", {}),
        }


def _route(origin: str, destination: str):
    for route in ROUTES:
        if route.origin == origin and route.destination == destination:
            return route
    return None
