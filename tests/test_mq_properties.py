"""Property-based tests for the message-queue substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mq import Broker, BrokerConfig
from repro.sim import Kernel, Latency

from helpers import append, unexpired_in_order


def make_broker(retention=100.0):
    kernel = Kernel(seed=11)
    broker = Broker(
        kernel,
        BrokerConfig(
            produce_latency=Latency.fixed(0.0),
            consume_latency=Latency.fixed(0.0),
            retention_seconds=retention,
        ),
    )
    return kernel, broker


@given(st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=50, deadline=None)
def test_appends_preserve_order_and_offsets(values):
    kernel, broker = make_broker()
    partition = broker.topic("t").partition("p")
    for value in values:
        append(partition, value, kernel.now)
    records = partition.read_from(0, kernel.now)
    assert [r.value for r in records] == values
    assert [r.offset for r in records] == list(range(len(values)))


@given(
    st.lists(st.tuples(st.integers(), st.floats(min_value=0, max_value=50)),
             min_size=1, max_size=30)
)
@settings(max_examples=50, deadline=None)
def test_expiry_drops_only_old_records(entries):
    kernel, broker = make_broker(retention=25.0)
    partition = broker.topic("t").partition("p")
    entries = sorted(entries, key=lambda item: item[1])
    for value, timestamp in entries:
        append(partition, value, timestamp)
    now = 60.0
    kept = partition.read_from(0, now)
    expected = [value for value, ts in entries if ts >= now - 25.0]
    assert [record.value for record in kept] == expected
    # first_retained_offset is consistent with what remains.
    if kept:
        assert kept[0].offset == partition.first_retained_offset


@given(st.lists(st.sampled_from(["p1", "p2", "p3"]), min_size=0, max_size=40))
@settings(max_examples=30, deadline=None)
def test_snapshot_contains_every_partition_record(partition_choices):
    kernel, broker = make_broker()
    topic = broker.topic("t")
    for index, name in enumerate(partition_choices):
        append(topic.partition(name), index, kernel.now)
    snapshot = unexpired_in_order(topic, kernel.now)
    assert sorted(record.value for record in snapshot) == sorted(
        range(len(partition_choices))
    )


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=20, deadline=None)
def test_read_from_any_offset_is_suffix(offset):
    kernel, broker = make_broker()
    partition = broker.topic("t").partition("p")
    for value in range(40):
        append(partition, value, kernel.now)
    records = partition.read_from(offset, kernel.now)
    assert [record.value for record in records] == list(range(40))[offset:]
