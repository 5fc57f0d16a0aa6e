"""The batched transport layer: outbox coalescing, stale re-routing,
tail-call atomicity and ordering under ``SEND_LINGER``, memoized routing
tables, and single-flight placement inside a running application."""

import pytest

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.core import router as transport
from repro.core.envelope import Response
from repro.mq import FencedMemberError, MQError, StaleRouteError
from repro.sim import Kernel

from helpers import Echo, Latch, make_app


class Recorder(Actor):
    """Accumulates tell payloads in arrival order."""

    async def activate(self, ctx):
        self.seen = []

    async def note(self, ctx, value):
        self.seen.append(value)

    async def dump(self, ctx):
        return list(self.seen)


class Chainer(Actor):
    async def first(self, ctx, v):
        return ctx.tail_call(None, "second", v + 1)

    async def second(self, ctx, v):
        return v * 2


def one_worker_app(seed, actor_class, **overrides):
    kernel, app = make_app(seed, **overrides)
    name = app.register_actor(actor_class)
    app.add_component("w1", (name,))
    app.client()
    app.settle()
    return kernel, app


async def send_outcome(router, partition, envelope):
    """One sender; a failed send returns its exception, not a crashed task."""
    try:
        return await router.send_durable(partition, envelope)
    except MQError as error:
        return error


def spawn_senders(kernel, component, sends, foreign=False):
    """One concurrent sender task per ``(partition, envelope)``, in order;
    ``foreign`` tasks run outside the component's process and outlive it."""
    process = None if foreign else component.process
    return [
        kernel.spawn(
            send_outcome(component.router, partition, envelope),
            process,
            name=f"send{index}",
        )
        for index, (partition, envelope) in enumerate(sends)
    ]


def outcomes_of(kernel, tasks, timeout=60.0):
    return kernel.run_until_complete(kernel.gather(tasks), timeout=timeout)


def landed(app, partition, offsets):
    """The records ``partition`` holds at ``offsets``, in that order."""
    queue = app.broker.topic(app.topic_name).partition(partition)
    records = {record.offset: record for record in queue.snapshot()}
    return [records[offset] for offset in offsets]


# ---------------------------------------------------------------------------
# outbox coalescing under fan-in
# ---------------------------------------------------------------------------

def test_fan_in_coalesces_into_batched_round_trips(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.002)
    kernel, app = one_worker_app(41, Echo)
    client = app.client()
    before = app.broker.produce_count

    async def caller(i):
        ref = actor_proxy("Echo", f"a{i}")
        return await client.invoke(None, ref, "echo", (i,), True)

    tasks = [
        kernel.spawn(caller(i), client.process, name=f"caller{i}")
        for i in range(16)
    ]
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=120.0)
    assert results == list(range(16))
    round_trips = app.broker.produce_count - before
    # 16 requests + 16 responses = 32 records; far fewer round trips.
    assert round_trips < 32 / 2
    stats = app.stats("transport")
    assert stats["largest_batch"] > 1
    kernel.check_no_crashes()


def test_zero_linger_coalesces_same_turn_sends_without_delay():
    kernel, app = one_worker_app(42, Echo)  # SEND_LINGER is 0.0
    client = app.client()

    async def caller(i):
        return await client.invoke(
            None, actor_proxy("Echo", f"b{i}"), "echo", (i,), True
        )

    tasks = [kernel.spawn(caller(i), client.process) for i in range(8)]
    before = app.broker.produce_count
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=120.0)
    assert results == list(range(8))
    # Same-instant sends coalesce even with no linger at all.
    assert app.broker.produce_count - before < 16
    kernel.check_no_crashes()


# ---------------------------------------------------------------------------
# one stale destination inside a mixed batch
# ---------------------------------------------------------------------------

def test_stale_entry_in_mixed_batch_fails_only_itself(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    kernel, app = one_worker_app(43, Echo)
    client = app.client()
    router = client.router
    worker_member = app.components["w1"].member_id

    # Two same-turn senders share one batch: a live destination and a dead
    # one. The batch must land the live entry and fail only the stale one.
    tasks = spawn_senders(
        kernel,
        client,
        [(worker_member, Response("nobody-1")), ("ghost#0", Response("nobody-2"))],
    )
    offset, stale = outcomes_of(kernel, tasks)
    (record,) = landed(app, worker_member, [offset])
    assert record.value == Response("nobody-1")
    assert isinstance(stale, StaleRouteError)
    assert router.largest_batch == 2
    ghost = app.broker.topic(app.topic_name).partition("ghost#0")
    assert len(ghost) == 0
    assert router.outbox_idle
    kernel.check_no_crashes()


def test_stale_response_is_rerouted_without_failing_the_batch(monkeypatch):
    """End to end: a response whose resolved target died mid-linger is
    re-resolved and re-sent; concurrent traffic in the same batch lands."""
    monkeypatch.setattr(transport, "SEND_LINGER", 0.001)
    kernel, app = make_app(44)
    app.register_actor(Latch)
    app.add_component("w1", ("Latch",))
    app.add_component("w2", ("Latch",))
    app.client()
    app.settle()
    # Place one actor per worker, then kill w2's host mid-conversation.
    refs = [actor_proxy("Latch", f"x{i}") for i in range(12)]
    for i, ref in enumerate(refs):
        app.run_call(ref, "set", i)
    hosts = {
        name: [r for r in refs if r in app.components[name]._instances]
        for name in ("w1", "w2")
    }
    assert hosts["w1"] and hosts["w2"]
    app.kill_component("w2")
    survivor = hosts["w1"][0]
    # The surviving worker keeps answering during and after recovery.
    assert app.run_call(survivor, "get", timeout=600.0) is not None
    kernel.check_no_crashes()


# ---------------------------------------------------------------------------
# tail calls under batching
# ---------------------------------------------------------------------------

def test_tail_call_is_still_one_record_under_linger(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.005)
    kernel, app = one_worker_app(45, Chainer)
    ref = actor_proxy("Chainer", "t")
    records_before = app.broker.produce_record_count
    assert app.run_call(ref, "first", 20) == 42
    appended = app.broker.produce_record_count - records_before
    # Exactly three records: the request, the tail successor (which
    # atomically completes `first` while issuing `second`), the response.
    assert appended == 3
    tail_ends = app.trace.where("invoke.end", outcome="tail")
    assert len(tail_ends) == 1
    kernel.check_no_crashes()


# ---------------------------------------------------------------------------
# ordering: linger never reorders two sends to the same partition
# ---------------------------------------------------------------------------

def test_linger_preserves_same_partition_send_order(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    kernel, app = one_worker_app(47, Recorder)
    client = app.client()
    worker_member = app.components["w1"].member_id

    tasks = spawn_senders(
        kernel, client, [(worker_member, Response(f"ord-{i}")) for i in range(5)]
    )
    records = landed(app, worker_member, outcomes_of(kernel, tasks))
    assert [record.value.request_id for record in records] == [
        f"ord-{i}" for i in range(5)
    ]
    offsets = [record.offset for record in records]
    assert offsets == sorted(offsets)  # FIFO per partition
    assert client.router.batches_flushed == 1


def test_linger_preserves_tell_order_end_to_end(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.002)
    kernel, app = one_worker_app(48, Recorder)
    client = app.client()
    ref = actor_proxy("Recorder", "r")

    async def tell(i):
        await client.invoke(None, ref, "note", (i,), False)

    tasks = [
        kernel.spawn(tell(i), client.process, name=f"tell{i}")
        for i in range(6)
    ]
    kernel.run_until_complete(kernel.gather(tasks), timeout=120.0)
    assert app.run_call(ref, "dump") == list(range(6))
    kernel.check_no_crashes()


# ---------------------------------------------------------------------------
# ordering across overflowing batches (SEND_BATCH_MAX)
# ---------------------------------------------------------------------------

def test_batch_overflow_drains_fifo(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    monkeypatch.setattr(transport, "SEND_BATCH_MAX", 3)
    kernel, app = one_worker_app(49, Recorder)
    client = app.client()
    router = client.router
    worker_member = app.components["w1"].member_id
    start = kernel.now
    tasks = spawn_senders(
        kernel, client, [(worker_member, Response(f"ovf-{i}")) for i in range(8)]
    )
    records = landed(app, worker_member, outcomes_of(kernel, tasks))
    offsets = [record.offset for record in records]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == 8
    assert router.largest_batch == 3
    assert router.batches_flushed == 3  # 3 + 3 + 2
    # One linger, then three back-to-back round trips: a rider promoted to
    # carrier does not linger again.
    assert kernel.now - start == pytest.approx(0.01 + 3 * 0.001, rel=1e-9)
    assert router.outbox_idle


# ---------------------------------------------------------------------------
# the carrier/rider protocol
# ---------------------------------------------------------------------------

def test_same_turn_sends_are_one_round_trip():
    kernel, app = one_worker_app(52, Recorder)  # SEND_LINGER == 0.0
    client = app.client()
    worker_member = app.components["w1"].member_id
    start = kernel.now
    produces = app.broker.produce_count
    tasks = spawn_senders(
        kernel, client, [(worker_member, Response(f"one-{i}")) for i in range(32)]
    )
    records = landed(app, worker_member, outcomes_of(kernel, tasks))
    assert [record.value.request_id for record in records] == [
        f"one-{i}" for i in range(32)
    ]
    assert app.broker.produce_count - produces == 1
    assert client.router.largest_batch == 32
    assert kernel.now - start == pytest.approx(0.001, rel=1e-9)


def test_sends_during_a_round_trip_ride_the_next_batch_in_order(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    kernel, app = one_worker_app(53, Recorder)
    client = app.client()
    router = client.router
    worker_member = app.components["w1"].member_id
    start = kernel.now
    first = spawn_senders(kernel, client, [(worker_member, Response("rt-0"))])
    kernel.run(until=start + 0.0105)  # linger over, produce in flight
    assert router.batches_flushed == 1 and not first[0].done()
    late = spawn_senders(
        kernel, client, [(worker_member, Response(f"rt-{i}")) for i in (1, 2, 3)]
    )
    records = landed(app, worker_member, outcomes_of(kernel, first + late))
    assert [record.value.request_id for record in records] == [
        f"rt-{i}" for i in range(4)
    ]
    offsets = [record.offset for record in records]
    assert offsets == sorted(offsets)
    assert router.batches_flushed == 2 and router.largest_batch == 3
    # The second batch left when the first was acknowledged, not a second
    # linger later.
    assert kernel.now - start == pytest.approx(0.01 + 2 * 0.001, rel=1e-9)
    assert router.outbox_idle


class FutureCountingKernel(Kernel):
    def __init__(self, seed=0):
        super().__init__(seed)
        self.futures_created = 0

    def create_future(self):
        self.futures_created += 1
        return super().create_future()


def test_only_a_rider_waits_on_a_future():
    kernel = FutureCountingKernel(seed=54)
    app = KarApplication(kernel, KarConfig.fast_test())
    app.add_component("w1", (app.register_actor(Recorder),))
    client = app.client()
    app.settle()
    worker_member = app.components["w1"].member_id
    # Park the idle consumers first: their wake-ups are futures too.
    kernel.run(until=kernel.now + 0.01)

    def futures_for(count):
        before = kernel.futures_created
        tasks = spawn_senders(
            kernel,
            client,
            [(worker_member, Response(f"f{count}-{i}")) for i in range(count)],
        )
        # Stop at the produce ack, before the woken consumer parks again.
        kernel.run(until=kernel.now + 0.001)
        assert all(task.done() for task in tasks)
        created = kernel.futures_created - before
        kernel.run(until=kernel.now + 0.01)
        return created

    assert futures_for(1) == 0  # a lone sender carries its own entry
    assert futures_for(3) == 2  # one per rider


def test_fence_during_a_round_trip_fails_every_waiting_sender(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    kernel, app = one_worker_app(55, Recorder)
    client = app.client()
    router = client.router
    worker_member = app.components["w1"].member_id
    start = kernel.now
    produced = app.broker.produce_record_count
    batch = spawn_senders(
        kernel, client, [(worker_member, Response(f"fb-{i}")) for i in range(3)]
    )
    kernel.run(until=start + 0.0105)  # the batch of three is in flight
    waiting = spawn_senders(
        kernel, client, [(worker_member, Response(f"fw-{i}")) for i in range(2)]
    )
    kernel.run(until=start + 0.0107)
    assert len(router._outbox) == 2 and not router.outbox_idle
    app.broker.fence(client.member_id)
    outcomes = outcomes_of(kernel, batch + waiting)
    assert [type(outcome) for outcome in outcomes] == [FencedMemberError] * 5
    assert app.broker.produce_record_count == produced  # nothing appended
    assert router._outbox == [] and router.outbox_idle
    kernel.check_no_crashes()


def test_carrier_of_a_component_killed_mid_linger_appends_nothing(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.01)
    kernel, app = one_worker_app(56, Recorder)
    client = app.client()
    worker_member = app.components["w1"].member_id
    produces = app.broker.produce_count
    tasks = spawn_senders(
        kernel,
        client,
        [(worker_member, Response(f"dead-{i}")) for i in range(2)],
        foreign=True,
    )
    kernel.run(until=kernel.now + 0.005)
    client.fail()
    outcomes = outcomes_of(kernel, tasks)
    assert [type(outcome) for outcome in outcomes] == [FencedMemberError] * 2
    assert app.broker.produce_count == produces
    kernel.check_no_crashes()


def test_drain_waits_for_a_lingering_carrier(monkeypatch):
    monkeypatch.setattr(transport, "SEND_LINGER", 0.05)
    kernel, app = one_worker_app(57, Recorder)
    client = app.client()
    worker_member = app.components["w1"].member_id
    start = kernel.now
    (sender,) = spawn_senders(kernel, client, [(worker_member, Response("dr-0"))])
    drained = kernel.spawn(client.drain(timeout=1.0))
    kernel.run(until=start + 0.03)
    assert not client.quiescent and not drained.done()  # still lingering
    assert kernel.run_until_complete(drained, timeout=2.0) is True
    assert sender.done() and kernel.now - start >= 0.05 + 0.001


# ---------------------------------------------------------------------------
# memoized routing tables
# ---------------------------------------------------------------------------

def test_live_candidates_memoized_per_generation():
    kernel, app = one_worker_app(50, Echo)
    component = app.components["w1"]
    first = component.router.live_candidates("Echo")
    second = component.router.live_candidates("Echo")
    assert first is second  # memoized within a generation
    assert first == ["w1"]
    generation = app.coordinator.generation
    app.add_component("w2", ("Echo",))
    app.settle()
    assert app.coordinator.generation > generation
    refreshed = component.router.live_candidates("Echo")
    assert refreshed == ["w1", "w2"]
    assert refreshed is not first


def test_live_incarnation_memoized_and_refreshed():
    kernel, app = one_worker_app(51, Echo)
    component = app.components["w1"]
    assert component.router.live_incarnation("w1") == component.member_id
    assert component.router.live_incarnation("nope") is None
    # Same generation: served from the memoized table.
    table = component.router._incarnations
    assert table is not None
    assert component.router.live_incarnation("w1") == component.member_id
    assert component.router._incarnations is table
