"""Consistent-hash sharding: determinism, balance, and stability."""

from __future__ import annotations

import pytest

from repro.core.sharding import (
    HashRing,
    parent_partition,
    sub_partition_names,
)

COMPONENTS = [f"comp{i}" for i in range(24)]


def test_assignment_is_deterministic_across_ring_instances():
    a = HashRing(["w0", "w1", "w2"]).assign(COMPONENTS)
    b = HashRing(["w2", "w0", "w1"]).assign(COMPONENTS)  # order-insensitive
    assert a == b
    assert a == HashRing(("w1", "w2", "w0", "w1")).assign(tuple(COMPONENTS))


def test_bounded_load_balances_perfectly():
    for workers in (2, 3, 4):
        ids = [f"w{i}" for i in range(workers)]
        assignment = HashRing(ids).assign(COMPONENTS)
        loads = [sum(1 for w in assignment.values() if w == wid) for wid in ids]
        cap = -(-len(COMPONENTS) // workers)  # ceil
        assert max(loads) <= cap
        assert sum(loads) == len(COMPONENTS)


def test_removing_a_worker_only_moves_its_items():
    before = HashRing(["w0", "w1", "w2"]).assign(COMPONENTS)
    after = HashRing(["w0", "w1"]).assign(COMPONENTS)
    # Items that stayed on a surviving worker kept their assignment unless
    # bounded-load overflow pushed them; the ones on w2 all moved.
    moved_from_survivors = [
        item
        for item in COMPONENTS
        if before[item] != "w2" and after[item] != before[item]
    ]
    # Bounded-load overflow may shuffle a few, but the bulk must be stable.
    assert len(moved_from_survivors) <= len(COMPONENTS) // 3


def test_successors_visit_every_worker_once():
    ring = HashRing(["w0", "w1", "w2", "w3"])
    order = list(ring.successors("some-item"))
    assert sorted(order) == ["w0", "w1", "w2", "w3"]


def test_empty_worker_set_rejected():
    with pytest.raises(ValueError):
        HashRing([]).assign(["x"])
    assert list(HashRing([]).successors("x")) == []


def test_replicas_validation():
    with pytest.raises(ValueError):
        HashRing(["w0"], replicas=0)


# ----------------------------------------------------------------------
# weighted assignment (the load-aware path)
# ----------------------------------------------------------------------
def test_zero_weights_reduce_to_count_balanced_assignment():
    ring = HashRing(["w0", "w1", "w2"])
    unweighted = ring.assign(COMPONENTS)
    zeroed = ring.assign(COMPONENTS, weights={c: 0.0 for c in COMPONENTS})
    assert zeroed == unweighted


def test_weighted_assignment_bounds_load_not_count():
    # One scorching item plus many cold ones: weighted capacity is the hot
    # item's load, so nothing else may share its worker.
    items = [f"comp{i}" for i in range(9)]
    weights = {name: 0.1 for name in items}
    weights["comp0"] = 10.0
    assignment = HashRing(["w0", "w1", "w2"]).assign(items, weights=weights)
    hot_worker = assignment["comp0"]
    sharing = [n for n in items if n != "comp0" and assignment[n] == hot_worker]
    assert sharing == []
    # Every item still lands somewhere, deterministically.
    assert set(assignment) == set(items)
    again = HashRing(["w2", "w1", "w0"]).assign(items, weights=weights)
    assert again == assignment


def test_weighted_assignment_spreads_equal_loads():
    items = [f"comp{i}" for i in range(6)]
    weights = {name: 1.0 for name in items}
    assignment = HashRing(["w0", "w1"]).assign(items, weights=weights)
    per_worker = [
        sum(weights[n] for n in items if assignment[n] == wid)
        for wid in ("w0", "w1")
    ]
    assert per_worker == [3.0, 3.0]


# ----------------------------------------------------------------------
# sub-partition naming (hot-component splitting)
# ----------------------------------------------------------------------
def test_sub_partition_names_roundtrip_through_parent():
    children = sub_partition_names("orders", 4)
    assert children == ("orders.s0", "orders.s1", "orders.s2", "orders.s3")
    assert all(parent_partition(child) == "orders" for child in children)
    assert parent_partition("orders") is None
    assert parent_partition("orders.sx") is None  # not a split name
    with pytest.raises(ValueError):
        sub_partition_names("orders", 1)
