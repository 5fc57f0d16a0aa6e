"""Sub-partition naming (hot-component splitting)."""

from __future__ import annotations

import pytest

from repro.core.placement import parent_partition, sub_partition_names


def test_sub_partition_names_roundtrip_through_parent():
    children = sub_partition_names("orders", 4)
    assert children == ("orders.s0", "orders.s1", "orders.s2", "orders.s3")
    assert all(parent_partition(child) == "orders" for child in children)
    assert parent_partition("orders") is None
    assert parent_partition("orders.sx") is None  # not a split name
    with pytest.raises(ValueError):
        sub_partition_names("orders", 1)
