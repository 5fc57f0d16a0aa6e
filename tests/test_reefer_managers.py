"""Unit-level tests of the manager singletons' business logic."""

import pytest

from repro.core import ActorMethodError, KarConfig, actor_proxy
from repro.reefer import ReeferApplication, ReeferConfig
from repro.reefer.domain import ROUTES, voyage_plan
from repro.sim import Kernel


@pytest.fixture
def reefer():
    kernel = Kernel(seed=91)
    application = ReeferApplication(
        kernel, KarConfig.fast_test(),
        ReeferConfig(order_rate=0.0, anomaly_rate=0.0),
    )
    application.app.settle()
    return application


def invoke(reefer, actor_type, method, *args):
    component = reefer.simulator_component
    task = reefer.kernel.spawn(
        component.invoke(
            None, actor_proxy(actor_type, "singleton"), method, args, True
        ),
        component.process,
    )
    return reefer.kernel.run_until_complete(task, timeout=120.0)


# ---------------------------------------------------------------------------
# ScheduleManager
# ---------------------------------------------------------------------------

def test_find_voyage_returns_earliest_future_sailing(reefer):
    plan = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 2,
        0.0,
    )
    assert plan["origin"] == "Elizabeth"
    assert plan["departure"] == 20.0  # first scheduled departure
    assert plan["capacity"] == 20


def test_find_voyage_skips_past_departures(reefer):
    plan = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 2,
        25.0,
    )
    assert plan["departure"] > 25.0


def test_find_voyage_unknown_route_errors(reefer):
    with pytest.raises(ActorMethodError, match="no route"):
        invoke(
            reefer, "ScheduleManager", "find_voyage", "Atlantis", "Oakland",
            1, 0.0,
        )


def test_find_voyage_respects_reported_capacity(reefer):
    first = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 2,
        0.0,
    )
    # Report the sailing as full.
    invoke(
        reefer, "ScheduleManager", "voyage_booked", first["voyage_id"], 20,
        "O-X",
    )
    second = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 2,
        0.0,
    )
    assert second["voyage_id"] != first["voyage_id"]
    assert second["departure"] > first["departure"]


def test_voyage_booked_is_idempotent_per_order(reefer):
    plan = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 1,
        0.0,
    )
    for _ in range(3):  # redelivered tell
        invoke(
            reefer, "ScheduleManager", "voyage_booked", plan["voyage_id"], 1,
            "O-1",
        )
    # Capacity 20: if the update tripled we could not fit 19 more.
    final = invoke(
        reefer, "ScheduleManager", "find_voyage", "Elizabeth", "Oakland", 19,
        0.0,
    )
    assert final["voyage_id"] == plan["voyage_id"]


def test_schedule_horizon_lists_all_routes(reefer):
    plans = invoke(reefer, "ScheduleManager", "schedule_horizon", 100.0, 0.0)
    origins = {plan["origin"] for plan in plans}
    assert origins == {route.origin for route in ROUTES}
    for plan in plans:
        assert plan["departure"] <= 100.0
        assert plan["arrival"] > plan["departure"]


def test_schedule_horizon_lists_only_plans_arriving_since(reefer):
    everything = invoke(reefer, "ScheduleManager", "schedule_horizon", 400.0, 0.0)
    for since in (80.0, 110.0, 200.5):  # 80 and 110: arrivals, exactly
        plans = invoke(
            reefer, "ScheduleManager", "schedule_horizon", 400.0, since
        )
        assert plans == [p for p in everything if p["arrival"] >= since]
        assert any(p["arrival"] == since for p in plans) is (since != 200.5)


def test_voyage_plan_is_deterministic():
    route = ROUTES[0]
    assert voyage_plan(route, 3, 20.0) == voyage_plan(route, 3, 20.0)
    assert voyage_plan(route, 3, 20.0)["departure"] == 20.0 + 3 * route.cadence_seconds


# ---------------------------------------------------------------------------
# OrderManager
# ---------------------------------------------------------------------------

def test_transition_log_rejects_terminal_regression(reefer):
    invoke(reefer, "OrderManager", "order_delivered", "O-1")
    invoke(reefer, "OrderManager", "order_departed", "O-1")  # illegal
    statuses = reefer.order_statuses()
    assert statuses["O-1"] == "delivered"  # unchanged
    violations = reefer.order_violations()
    assert violations and violations[0]["order_id"] == "O-1"


def test_statuses_excludes_internal_keys(reefer):
    invoke(reefer, "OrderManager", "order_delivered", "O-1")
    invoke(reefer, "OrderManager", "order_departed", "O-1")
    statuses = reefer.order_statuses()
    assert all(not key.startswith("_") for key in statuses)


# ---------------------------------------------------------------------------
# Voyage/Depot managers
# ---------------------------------------------------------------------------

def test_voyage_manager_first_timestamp_wins(reefer):
    invoke(reefer, "VoyageManager", "voyage_departed", "V-1", 10.0)
    invoke(reefer, "VoyageManager", "voyage_departed", "V-1", 99.0)
    stats = reefer.voyage_stats()
    assert stats["departed"]["V-1"] == 10.0


def test_depot_manager_accumulates_moves(reefer):
    invoke(reefer, "DepotManager", "containers_moved", "Oakland", 3, "allocated")
    invoke(reefer, "DepotManager", "containers_moved", "Oakland", 2, "allocated")
    stats = reefer.depot_stats()
    assert stats["moves"]["Oakland:allocated"] == 5
