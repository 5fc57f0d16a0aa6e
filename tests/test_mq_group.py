"""Unit tests for consumer groups: detection, consensus, fencing, pausing."""

import pytest

from repro.mq import (
    Broker,
    BrokerConfig,
    FencedMemberError,
    GroupCoordinator,
)
from repro.sim import Kernel, Latency, SimProcess


def make_group(seed=5, **overrides):
    kernel = Kernel(seed=seed)
    defaults = dict(
        produce_latency=Latency.fixed(0.001),
        consume_latency=Latency.fixed(0.0005),
        heartbeat_interval=3.0,
        session_timeout=10.0,
        watchdog_interval=0.5,
        rebalance_join_window=2.2,
        rebalance_sync_latency=Latency.around(0.2, 0.15),
    )
    defaults.update(overrides)
    broker = Broker(kernel, BrokerConfig(**defaults))
    coordinator = GroupCoordinator(broker, "app", "app-topic")
    return kernel, broker, coordinator


def auto_resume(coordinator):
    """Stand-in for the KAR leader: resume immediately on each generation."""
    coordinator.on_generation(lambda info: coordinator.resume(info.generation))


def test_join_creates_generation():
    kernel, _broker, group = make_group()
    auto_resume(group)
    process = SimProcess("m1")
    group.join("m1", process)
    kernel.run(until=5.0)
    assert group.generation == 1
    assert group.member_ids() == ("m1",)
    assert group.leader == "m1"
    assert not group.paused
    kernel.check_no_crashes()


def test_simultaneous_joins_coalesce():
    kernel, _broker, group = make_group()
    auto_resume(group)
    for name in ("m1", "m2", "m3"):
        group.join(name, SimProcess(name))
    kernel.run(until=5.0)
    assert group.generation == 1
    assert group.member_ids() == ("m1", "m2", "m3")
    kernel.check_no_crashes()


def test_duplicate_member_rejected():
    kernel, _broker, group = make_group()
    group.join("m1", SimProcess("m1"))
    with pytest.raises(ValueError):
        group.join("m1", SimProcess("m1-again"))
    # Start the tasks the first join spawned: a coroutine dropped before its
    # first step is a "never awaited" RuntimeWarning at collection time.
    kernel.run(until=1.0)
    assert group.member_ids() == ("m1",)
    kernel.check_no_crashes()


def test_failure_detected_within_session_timeout():
    kernel, broker, group = make_group()
    auto_resume(group)
    victim = SimProcess("victim")
    survivor = SimProcess("survivor")
    group.join("victim", victim)
    group.join("survivor", survivor)
    kernel.run(until=20.0)
    assert group.generation == 1

    kill_time = kernel.now
    victim.kill()
    kernel.run(until=kill_time + 40.0)

    assert group.member_ids() == ("survivor",)
    assert broker.is_fenced("victim")
    record = group.history[-1]
    assert record.failed == ("victim",)
    detection = record.triggered_at - kill_time
    # Heartbeat every 3 s, session timeout 10 s, watchdog every 0.5 s:
    # detection must land in [7.0, 10.5 + eps].
    assert 6.9 <= detection <= 11.1
    consensus = record.completed_at - record.triggered_at
    assert 2.2 <= consensus <= 3.3
    kernel.check_no_crashes()


def test_evicted_member_cannot_send():
    kernel, _broker, group = make_group()
    auto_resume(group)
    victim = SimProcess("victim")
    group.join("victim", victim)
    group.join("other", SimProcess("other"))
    kernel.run(until=20.0)
    member = group.members["victim"].member

    # Simulate a zombie: stop heartbeats without killing the send path.
    group.members["victim"].last_heartbeat = -1000.0
    kernel.run(until=40.0)
    assert "victim" not in group.members

    async def zombie_send():
        with pytest.raises(FencedMemberError):
            await member.send("other", "stale")

    kernel.run_until_complete(kernel.spawn(zombie_send()))
    kernel.check_no_crashes()


def test_group_stays_paused_until_resume():
    kernel, _broker, group = make_group()
    resumes = []
    group.on_generation(lambda info: resumes.append(info))
    group.join("m1", SimProcess("m1"))
    kernel.run(until=30.0)
    assert group.generation == 1
    assert group.paused  # nobody called resume
    group.resume(1)
    assert not group.paused
    kernel.check_no_crashes()


def test_stale_resume_ignored():
    kernel, _broker, group = make_group()
    generations = []
    group.on_generation(lambda info: generations.append(info.generation))
    m1 = SimProcess("m1")
    m2 = SimProcess("m2")
    group.join("m1", m1)
    kernel.run(until=10.0)
    assert group.generation == 1
    group.join("m2", m2)
    kernel.run(until=20.0)
    assert group.generation == 2
    group.resume(1)  # stale: must not unpause generation 2
    assert group.paused
    group.resume(2)
    assert not group.paused
    kernel.check_no_crashes()


def test_send_and_poll_roundtrip():
    kernel, _broker, group = make_group()
    auto_resume(group)
    p1, p2 = SimProcess("m1"), SimProcess("m2")
    alice = group.join("m1", p1)
    bob = group.join("m2", p2)
    kernel.run(until=5.0)

    async def sender():
        await alice.send("m2", {"msg": "hi"})

    async def receiver():
        records = await bob.poll()
        return records[0].value

    receiver_task = kernel.spawn(receiver(), process=p2)
    kernel.spawn(sender(), process=p1)
    assert kernel.run_until_complete(receiver_task) == {"msg": "hi"}
    kernel.check_no_crashes()


def test_send_blocks_while_paused():
    kernel, _broker, group = make_group()
    p1 = SimProcess("m1")
    alice = group.join("m1", p1)
    sent_at = []

    async def sender():
        await alice.send("m1", "x")
        sent_at.append(kernel.now)

    kernel.spawn(sender(), process=p1)
    kernel.run(until=30.0)
    assert sent_at == []  # group still paused: nothing sent
    group.resume(group.generation)
    kernel.run(until=31.0)
    assert len(sent_at) == 1
    kernel.check_no_crashes()


def test_failure_during_rebalance_restarts_it():
    kernel, _broker, group = make_group()
    auto_resume(group)
    a, b, c = SimProcess("a"), SimProcess("b"), SimProcess("c")
    group.join("a", a)
    group.join("b", b)
    group.join("c", c)
    kernel.run(until=10.0)
    assert group.generation == 1

    a.kill()
    kernel.run(until=22.0)  # watchdog evicts "a", rebalance starts
    b.kill()  # second failure while first recovery is in flight
    kernel.run(until=60.0)
    assert group.member_ids() == ("c",)
    assert not group.paused
    # Both failures eventually reflected in history.
    failed = {name for record in group.history for name in record.failed}
    assert failed == {"a", "b"}
    kernel.check_no_crashes()


def test_leader_is_lowest_member_id():
    kernel, _broker, group = make_group()
    auto_resume(group)
    for name in ("mz", "ma", "mk"):
        group.join(name, SimProcess(name))
    kernel.run(until=5.0)
    assert group.leader == "ma"
    kernel.check_no_crashes()


def test_empty_group_resumes_itself():
    kernel, _broker, group = make_group()
    solo = SimProcess("solo")
    group.join("solo", solo)
    kernel.run(until=5.0)
    solo.kill()
    kernel.run(until=60.0)
    assert group.member_ids() == ()
    assert not group.paused
    kernel.check_no_crashes()


# ----------------------------------------------------------------------
# a rebuilt coordinator keeps the generation and nothing of the session
# ----------------------------------------------------------------------
def test_rebuilt_coordinator_resumes_the_generation_with_a_clean_session():
    kernel, broker, group = make_group()
    group.join("m1", SimProcess("m1"))
    kernel.run(until=5.0)
    assert group.generation == 1 and group.paused  # nobody resumed it
    assert group.member_ids() == ("m1",)
    group.close()

    rebuilt = GroupCoordinator(broker, "app", "app-topic")
    assert rebuilt.generation == 1  # durable: restored from the log's metadata
    # Session state describes processes that are gone: none of it survives.
    assert rebuilt.member_ids() == () and not rebuilt.is_member("m1")
    assert not rebuilt.paused
    assert rebuilt.members == {} and rebuilt.history == []
    auto_resume(rebuilt)
    rebuilt.join("m2", SimProcess("m2"))
    kernel.run(until=10.0)
    assert rebuilt.generation == 2  # numbering continues, never restarts
    assert rebuilt.history[-1].joined == ("m2",)
    kernel.check_no_crashes()


# ----------------------------------------------------------------------
# the long poll: a parked consumer costs nothing, a delivered batch one fetch
# ----------------------------------------------------------------------
def settled_pair(**overrides):
    """A resumed two-member group: (kernel, broker, group, alice, bob)."""
    kernel, broker, group = make_group(**overrides)
    auto_resume(group)
    alice = group.join("m1", SimProcess("m1"))
    bob = group.join("m2", SimProcess("m2"))
    kernel.run(until=5.0)
    assert not group.paused
    return kernel, broker, group, alice, bob


def poll_into(kernel, member, deliveries, max_records=None):
    """Poll forever, logging ``(time, [offsets], [values])`` per batch."""

    async def consume():
        while True:
            records = await member.poll(max_records)
            deliveries.append(
                (
                    kernel.now,
                    [record.offset for record in records],
                    [record.value for record in records],
                )
            )

    return kernel.spawn(consume(), process=member.process)


def test_idle_member_performs_no_fetch():
    kernel, broker, _group, _alice, bob = settled_pair()
    deliveries = []
    poll_into(kernel, bob, deliveries)
    kernel.run(until=15.0)
    assert deliveries == []
    assert broker.consume_count == 0
    # Peeking at the end offset created nothing either.
    assert "m2" not in broker.topic("app-topic").partitions
    kernel.check_no_crashes()


def test_record_is_delivered_one_consume_latency_after_its_append():
    kernel, broker, _group, alice, bob = settled_pair()
    deliveries = []
    appended_at = []

    async def sender(value, delay):
        await kernel.sleep(delay)
        offset = await alice.send("m2", value)
        (record,) = broker.topic("app-topic").partition("m2").read_from(
            offset, kernel.now, 1
        )
        appended_at.append(record.timestamp)

    poll_into(kernel, bob, deliveries)
    kernel.spawn(sender("first", 1.0), process=alice.process)
    # The second append lands 0.3 ms after the first delivery: a consumer
    # that re-fetched eagerly would already be 0.3 ms into a fetch and
    # return it 0.2 ms after the append.
    kernel.spawn(sender("second", 1.0 + 0.0005 + 0.0003), process=alice.process)
    kernel.run(until=10.0)
    assert [values for _t, _offsets, values in deliveries] == [["first"], ["second"]]
    assert len(appended_at) == 2
    for (delivered, _offsets, _values), appended in zip(deliveries, appended_at):
        assert delivered == pytest.approx(appended + 0.0005, abs=1e-12)
    assert broker.consume_count == 2  # one fetch per delivered batch
    kernel.check_no_crashes()


def test_member_fenced_while_parked_raises_at_its_next_wake():
    kernel, broker, _group, _alice, bob = settled_pair()
    outcome = []

    async def consume():
        try:
            outcome.append(await bob.poll())
        except FencedMemberError as error:
            outcome.append(error)

    kernel.spawn(consume(), process=bob.process)
    kernel.run(until=6.0)
    broker.fence("m2")
    kernel.run(until=8.0)
    assert outcome == []  # parked: nothing wakes it, nothing is fetched
    broker.produce_internal_batch("app-topic", [("m2", "too late")])
    kernel.run(until=9.0)
    assert len(outcome) == 1 and isinstance(outcome[0], FencedMemberError)
    assert broker.consume_count == 0
    kernel.check_no_crashes()


def test_records_appended_under_a_pause_wait_for_resume():
    kernel, broker, group, _alice, bob = settled_pair()
    deliveries = []
    poll_into(kernel, bob, deliveries)
    kernel.run(until=6.0)
    group.paused = True
    broker.produce_internal_batch("app-topic", [("m2", "held")])
    kernel.run(until=8.0)
    assert deliveries == [] and broker.consume_count == 0
    group.resume(group.generation)
    kernel.run(until=9.0)
    assert deliveries == [(pytest.approx(8.0005), [0], ["held"])]
    kernel.check_no_crashes()


def test_bounded_poll_drains_a_backlog_without_parking():
    kernel, broker, _group, _alice, bob = settled_pair()
    broker.produce_internal_batch(
        "app-topic", [("m2", index) for index in range(5)]
    )
    deliveries = []
    poll_into(kernel, bob, deliveries, max_records=2)
    kernel.run(until=6.0)
    assert [offsets for _t, offsets, _values in deliveries] == [[0, 1], [2, 3], [4]]
    assert [delivered for delivered, _o, _v in deliveries] == [
        pytest.approx(5.0 + 0.0005 * batch) for batch in (1, 2, 3)
    ]
    assert broker.consume_count == 3
    kernel.check_no_crashes()


def test_interleaved_producers_deliver_gap_free_and_in_order():
    kernel, broker, group, alice, bob = settled_pair(
        produce_latency=Latency.around(0.001, 0.0008)
    )
    carol = group.join("m3", SimProcess("m3"))
    kernel.run(until=10.0)
    deliveries = []
    poll_into(kernel, carol, deliveries)

    async def producer(member, tag):
        for index in range(500):
            await member.send("m3", (tag, index))

    kernel.spawn(producer(alice, "a"), process=alice.process)
    kernel.spawn(producer(bob, "b"), process=bob.process)
    kernel.run(until=20.0)
    offsets = [offset for _t, batch, _values in deliveries for offset in batch]
    assert offsets == list(range(1000))
    values = [value for _t, _offsets, batch in deliveries for value in batch]
    for tag in "ab":
        assert [index for t, index in values if t == tag] == list(range(500))
    # One fetch per delivered batch, never one per poll interval.
    assert broker.consume_count == len(deliveries)
    kernel.check_no_crashes()


def test_parked_consumer_skips_a_gap_that_retention_expired():
    kernel, broker, _group, _alice, bob = settled_pair(retention_seconds=1.0)
    broker.produce_internal_batch(
        "app-topic", [("m2", f"stale{index}") for index in range(3)]
    )
    kernel.run(until=10.0)  # the backlog outlives its retention unread
    deliveries = []
    poll_into(kernel, bob, deliveries)
    kernel.run(until=20.0)
    # One fetch discovered the gap; the member then parked past it instead
    # of re-fetching the expired range every consume_latency.
    assert deliveries == [] and broker.consume_count == 1
    assert bob.position == 3
    broker.produce_internal_batch("app-topic", [("m2", "fresh")])
    kernel.run(until=21.0)
    assert deliveries == [(pytest.approx(20.0005), [3], ["fresh"])]
    assert broker.consume_count == 2
    kernel.check_no_crashes()
