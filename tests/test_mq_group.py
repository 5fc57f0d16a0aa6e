"""Unit tests for consumer groups: detection, consensus, fencing, pausing."""

import pytest

from repro.mq import Broker, BrokerConfig, FencedMemberError, GroupCoordinator
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
    assert group.live_members == ("m1",)
    assert group.leader == "m1"
    assert not group.paused


def test_simultaneous_joins_coalesce():
    kernel, _broker, group = make_group()
    auto_resume(group)
    for name in ("m1", "m2", "m3"):
        group.join(name, SimProcess(name))
    kernel.run(until=5.0)
    assert group.generation == 1
    assert group.live_members == ("m1", "m2", "m3")


def test_duplicate_member_rejected():
    kernel, _broker, group = make_group()
    group.join("m1", SimProcess("m1"))
    with pytest.raises(ValueError):
        group.join("m1", SimProcess("m1-again"))
    # Start the tasks the first join spawned: a coroutine dropped before its
    # first step is a "never awaited" RuntimeWarning at collection time.
    kernel.run(until=1.0)
    assert group.live_members == ("m1",)


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

    assert group.live_members == ("survivor",)
    assert broker.is_fenced("victim")
    record = group.history[-1]
    assert record.failed == ("victim",)
    detection = record.triggered_at - kill_time
    # Heartbeat every 3 s, session timeout 10 s, watchdog every 0.5 s:
    # detection must land in [7.0, 10.5 + eps].
    assert 6.9 <= detection <= 11.1
    consensus = record.completed_at - record.triggered_at
    assert 2.2 <= consensus <= 3.3


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
    assert group.live_members == ("c",)
    assert not group.paused
    # Both failures eventually reflected in history.
    failed = {name for record in group.history for name in record.failed}
    assert failed == {"a", "b"}


def test_leader_is_lowest_member_id():
    kernel, _broker, group = make_group()
    auto_resume(group)
    for name in ("mz", "ma", "mk"):
        group.join(name, SimProcess(name))
    kernel.run(until=5.0)
    assert group.leader == "ma"


def test_empty_group_resumes_itself():
    kernel, _broker, group = make_group()
    solo = SimProcess("solo")
    group.join("solo", solo)
    kernel.run(until=5.0)
    solo.kill()
    kernel.run(until=60.0)
    assert group.live_members == ()
    assert not group.paused
