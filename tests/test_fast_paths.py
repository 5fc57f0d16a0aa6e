"""The per-hop fast paths keep the semantics of the calls they skip.

A fixed latency is read (``Latency.fixed``) instead of sampled, the runtime's
own sleeps skip ``Kernel.sleep``'s argument check, and ``SimTask._on_future``
dispatches on the exact type of what a coroutine yields. None of that may
move a random draw or a simulated instant: every hot site must leave
``kernel.rng`` exactly where ``Latency.sample`` would, and sleep exactly the
sampled delay.

A carrier still alone in its outbox after the linger sends its one record
without the batch machinery; it must settle the riders that queue behind it
as a batch's carrier would. Each row of :data:`LONE_CARRIER` is a scenario
for one outcome rule, and must report something with that rule's arm
skipped.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from helpers import Latch, make_app, skip_arm
from test_core_refused_payload import Unframeable
from repro.core import actor_proxy
from repro.core.envelope import Response
from repro.core.router import Router
from repro.kvstore import KVStore
from repro.mq import Broker, BrokerConfig, StaleRouteError
from repro.persist import CodecError, PersistenceConfig
from repro.sim import Kernel, Latency, SimFuture

SEED = 35
JITTERED = Latency.around(0.001, 0.0004)
ROUNDS = 12


# ----------------------------------------------------------------------
# Latency.fixed
# ----------------------------------------------------------------------
def test_fixed_is_none_exactly_when_jitter_is_positive():
    assert Latency(0.25).fixed == 0.25
    assert Latency.fixed(0.5).fixed == 0.5
    assert Latency(0.25, 0.0, floor=0.1).fixed == 0.25
    assert Latency(0.25, 0.1).fixed is None
    assert Latency(0.0, 1e-9).fixed is None
    # Derived, not a field: equality, hashing and repr ignore it.
    assert Latency(0.25) == Latency.fixed(0.25)
    assert hash(Latency(0.25)) == hash(Latency.fixed(0.25))
    assert "fixed" not in repr(Latency(0.25))


def test_fixed_stays_right_through_replace_and_scaled():
    fixed, jittered = Latency.fixed(0.002), Latency.around(0.002, 0.001)
    assert replace(fixed, jitter=0.001).fixed is None
    assert replace(jittered, jitter=0.0).fixed == 0.002
    assert replace(fixed, base=0.004).fixed == 0.004
    assert fixed.scaled(3.0).fixed == fixed.base * 3.0
    assert jittered.scaled(3.0).fixed is None
    assert jittered.scaled(0.0).fixed == 0.0  # no jitter left


def test_a_fixed_sample_is_the_fixed_value_and_draws_nothing():
    rng = Random(SEED)
    state = rng.getstate()
    latency = Latency.fixed(0.003)
    assert [latency.sample(rng) for _ in range(5)] == [latency.fixed] * 5
    assert rng.getstate() == state


def test_negative_floor_rejected():
    # The runtime's sleeps skip the negative-delay check: a latency can
    # never sample below zero.
    with pytest.raises(ValueError, match="floor"):
        Latency(0.001, 0.002, floor=-0.001)


# ----------------------------------------------------------------------
# every hot site draws what ``sample`` draws and sleeps what it samples
# ----------------------------------------------------------------------
def reference(seed_state: tuple, latencies: list[Latency]) -> tuple[Random, list]:
    """A generator in ``seed_state`` after sampling ``latencies`` in order,
    and the samples."""
    rng = Random()
    rng.setstate(seed_state)
    return rng, [latency.sample(rng) for latency in latencies]


def drive(kernel: Kernel, coro_factory, rounds: int = ROUNDS) -> list[float]:
    """Await ``coro_factory()`` ``rounds`` times in one task; the simulated
    time each await took (a difference of clock readings, so equal to the
    slept delay up to rounding)."""
    took: list[float] = []

    async def loop() -> None:
        for _ in range(rounds):
            start = kernel.now
            await coro_factory()
            took.append(kernel.now - start)

    kernel.run_until_complete(kernel.spawn(loop()))
    return took


@pytest.mark.parametrize("latency", [JITTERED, Latency.fixed(0.001)])
@pytest.mark.parametrize(
    "site", ["produce", "produce_batch", "produce_transaction", "fetch"]
)
def test_broker_sites_sample_like_sample(site, latency):
    kernel = Kernel(seed=SEED)
    config = BrokerConfig(produce_latency=latency, consume_latency=latency)
    broker = Broker(kernel, config)
    broker.topic("t").partition("p")
    start = kernel.rng.getstate()
    calls = {
        "produce": lambda: broker.produce("t", "p", "v", "c"),
        "produce_batch": lambda: broker.produce_batch("t", [("p", "v")], "c"),
        "produce_transaction": lambda: broker.produce_transaction(
            "t", [("p", "v")], "c"
        ),
        "fetch": lambda: broker.fetch("t", "p", 0, "c"),
    }
    took = drive(kernel, calls[site])
    rng, samples = reference(start, [latency] * ROUNDS)
    assert kernel.rng.getstate() == rng.getstate()
    assert took == pytest.approx(samples, rel=1e-9)
    kernel.check_no_crashes()


@pytest.mark.parametrize("latency", [JITTERED, Latency.fixed(0.001)])
def test_store_round_trip_samples_like_sample(latency):
    kernel = Kernel(seed=SEED)
    store = KVStore(kernel, latency)
    start = kernel.rng.getstate()
    took = drive(kernel, lambda: store.connection_round_trip("c"))
    rng, samples = reference(start, [latency] * ROUNDS)
    assert kernel.rng.getstate() == rng.getstate()
    assert took == pytest.approx(samples, rel=1e-9)
    kernel.check_no_crashes()


@pytest.mark.parametrize("jitter", [0.0, 0.0001])
def test_component_hop_samples_like_sample(jitter):
    hop = Latency(0.00025, jitter)
    kernel, app = make_app(seed=SEED, sidecar_latency=hop)
    component = app.add_component("w1", (app.register_actor(Latch),))
    app.settle()
    start = kernel.rng.getstate()
    took = drive(kernel, component._hop)
    rng, samples = reference(start, [hop] * ROUNDS)
    assert kernel.rng.getstate() == rng.getstate()
    assert took == pytest.approx(samples, rel=1e-9)
    kernel.check_no_crashes()


@pytest.mark.parametrize("jitter", [0.0, 0.0001])
def test_echo_calls_draw_what_their_samples_draw(jitter):
    """An echo call samples the sidecar hop and the invoke overhead at
    ``invoke``, then three more hops (dispatch, outcome, reply): five draws
    a call when both are jittered, none when both are fixed."""
    hop, work = Latency(0.00025, jitter), Latency(0.0002, jitter)
    kernel, app = make_app(seed=SEED, sidecar_latency=hop, invoke_overhead=work)
    name = app.register_actor(Latch)
    app.add_component("w1", (name,))
    client = app.client()
    app.settle()
    ref = actor_proxy(name, "a")
    app.run_call(ref, "set", 0)  # activation happens outside the count
    start = kernel.rng.getstate()
    for value in range(ROUNDS):
        kernel.run_until_complete(
            kernel.spawn(client.invoke(None, ref, "set", (value,)), client.process)
        )
    rng, _samples = reference(start, [hop, work, hop, hop, hop] * ROUNDS)
    assert kernel.rng.getstate() == rng.getstate()
    assert (rng.getstate() == start) == (jitter == 0.0)
    kernel.check_no_crashes()


# ----------------------------------------------------------------------
# SimTask._on_future: exact types first, the general case still holds
# ----------------------------------------------------------------------
class _Future(SimFuture):
    __slots__ = ()


def test_on_future_still_takes_int_delays_future_subclasses_and_refuses_others():
    kernel = Kernel(seed=SEED)
    future = _Future(kernel)
    seen: list[object] = []

    async def waiter() -> None:
        await kernel.sleep(2)  # an int delay
        seen.append(kernel.now)
        seen.append(await future)  # a SimFuture subclass

    task = kernel.spawn(waiter())
    kernel.schedule(3.0, future.set_result, "done")
    kernel.run()
    assert task.done() and seen == [2.0, "done"]

    async def bogus() -> None:
        await _Bogus()

    kernel.spawn(bogus(), name="bogus")
    with pytest.raises(TypeError, match="'bogus' awaited a non-sim awaitable"):
        kernel.run()
    kernel.check_no_crashes()


class _Bogus:
    def __await__(self):
        yield "not a delay"


# ----------------------------------------------------------------------
# the lone carrier settles its riders as a batch's carrier does
# ----------------------------------------------------------------------
def lone_carrier_app(tmp_path=None):
    """One worker and a settled client; with ``tmp_path``, on a journal."""
    overrides = {}
    if tmp_path is not None:
        overrides["persistence"] = PersistenceConfig.sqlite(str(tmp_path / "lone"))
    kernel, app = make_app(61, **overrides)
    app.add_component("w1", (app.register_actor(Latch),))
    client = app.client()
    app.settle()
    return kernel, app, client, app.components["w1"].member_id


async def sent(router, partition, envelope, at_raise=None):
    """One send's offset, or the error it raised (not a crashed task). With
    ``at_raise``, the outbox as the send raised, before any rider ran: per
    queued rider whether it was settled, then whether a sender carries."""
    try:
        return await router.send_durable(partition, envelope)
    except Exception as error:  # noqa: BLE001 - the outcome under test
        if at_raise is not None:
            settled = [entry.future.done() for entry in router._outbox]
            at_raise.append((settled, router._carrying))
        return error


def carry_with_riders(kernel, client, carried, riders, meanwhile=None):
    """A lone carrier sends ``carried``; while its produce is in flight, one
    rider per ``riders`` entry queues behind it, then ``meanwhile()`` runs.
    Returns the outcomes, carrier first (``None`` for a sender still
    waiting), and the carrier's ``at_raise`` list."""
    router, at_raise = client.router, []
    tasks = [kernel.spawn(sent(router, *carried, at_raise), client.process)]
    kernel.run(until=kernel.now + 0.0005)  # alone after the linger
    tasks += [kernel.spawn(sent(router, *rider), client.process) for rider in riders]
    kernel.run(until=kernel.now + 0.0001)
    if len(router._outbox) != len(riders):
        raise AssertionError(f"{len(router._outbox)} riders queued")
    if meanwhile is not None:
        meanwhile()
    kernel.run(until=kernel.now + 0.05)
    outcomes = [task.completion.result() if task.done() else None for task in tasks]
    return outcomes, at_raise


def kinds(values) -> list[str]:
    return [type(value).__name__ for value in values]


def fenced_lone_send(tmp_path) -> list[str]:
    """A fence on a lone carrier's produce fails every rider queued behind
    it, leaves the outbox empty and idle, and appends nothing."""
    kernel, app, client, worker = lone_carrier_app()
    produced = app.broker.produce_record_count
    outcomes, at_raise = carry_with_riders(
        kernel,
        client,
        (worker, Response("carried")),
        [(worker, Response(f"rider-{index}")) for index in range(2)],
        meanwhile=lambda: app.broker.fence(client.member_id),
    )
    found = []
    if kinds(outcomes) != ["FencedMemberError"] * 3:
        found.append(f"outcomes {kinds(outcomes)}")
    if at_raise != [([], False)]:
        found.append(f"outbox at the carrier's raise: {at_raise}")
    if not client.router.outbox_idle:
        found.append("the outbox is not idle")
    if app.broker.produce_record_count != produced:
        found.append("a fenced send appended")
    kernel.check_no_crashes()
    return found


def promoted_after(kernel, client, carried, riders, error) -> list[str]:
    """``carried`` fails its lone carrier with ``error`` alone: the rider at
    the outbox head is promoted before the carrier raises, and the riders
    land."""
    outcomes, at_raise = carry_with_riders(kernel, client, carried, riders)
    found = []
    if not isinstance(outcomes[0], error):
        found.append(f"the carrier's outcome is {outcomes[0]!r}")
    if kinds(outcomes[1:]) != ["int"] * len(riders):
        found.append(f"rider outcomes {kinds(outcomes[1:])}")
    if at_raise != [([True] + [False] * (len(riders) - 1), True)]:
        found.append(f"outbox at the carrier's raise: {at_raise}")
    if not client.router.outbox_idle:
        found.append("the outbox is not idle")
    kernel.check_no_crashes()
    return found


def stale_lone_send(tmp_path) -> list[str]:
    """A lone send to a queue that left the group fails only its carrier."""
    kernel, _app, client, worker = lone_carrier_app()
    riders = [(worker, Response(f"rider-{index}")) for index in range(2)]
    carried = ("gone#0", Response("stale"))
    return promoted_after(kernel, client, carried, riders, StaleRouteError)


def refused_lone_send(tmp_path) -> list[str]:
    """A lone send the journal refuses fails only its carrier."""
    kernel, app, client, worker = lone_carrier_app(tmp_path)
    try:
        riders = [(worker, Response(f"rider-{index}")) for index in range(2)]
        carried = (worker, Unframeable())
        return promoted_after(kernel, client, carried, riders, CodecError)
    finally:
        app.shutdown()


def promoted_rider_alone(tmp_path) -> list[str]:
    """A rider promoted to carry alone sends its one record in a lone
    produce too, not through the batch path."""
    kernel, _app, client, worker = lone_carrier_app()
    member, batches = client.member, []
    send_batch = member.send_batch

    def counted(entries):
        batches.append(len(entries))
        return send_batch(entries)

    member.send_batch = counted
    outcomes, _at_raise = carry_with_riders(
        kernel, client, (worker, Response("carried")), [(worker, Response("rider"))]
    )
    found = []
    if kinds(outcomes) != ["int", "int"]:
        found.append(f"outcomes {kinds(outcomes)}")
    if batches:
        found.append(f"batch sends of {batches}")
    if not client.router.outbox_idle:
        found.append("the outbox is not idle")
    kernel.check_no_crashes()
    return found


#: One outcome rule of the lone carrier per row: its scenario, and the arm
#: of ``Router`` that the scenario needs.
LONE_CARRIER = [
    (
        "fence_fails_every_queued_rider",
        (Router, "_carrier_failed", "isinstance(error, FencedMemberError)"),
        fenced_lone_send,
    ),
    (
        "stale_route_promotes_the_next_rider",
        (Router, "_carrier_failed", "outbox"),
        stale_lone_send,
    ),
    (
        "log_refusal_promotes_the_next_rider",
        (Router, "_carrier_failed", "outbox"),
        refused_lone_send,
    ),
    (
        "promoted_rider_carries_alone",
        (Router, "send_durable", "len(outbox) == 1"),
        promoted_rider_alone,
    ),
]


@pytest.mark.parametrize(
    "scenario", [row[2] for row in LONE_CARRIER], ids=[row[0] for row in LONE_CARRIER]
)
def test_the_lone_carrier_settles_its_riders_as_a_batch_does(scenario, tmp_path):
    assert scenario(tmp_path) == []


@pytest.mark.parametrize(
    "arm, scenario",
    [row[1:] for row in LONE_CARRIER],
    ids=[row[0] for row in LONE_CARRIER],
)
def test_each_lone_carrier_arm_is_needed_by_its_scenario(
    arm, scenario, monkeypatch, tmp_path
):
    skip_arm(monkeypatch, *arm)
    try:
        found = scenario(tmp_path)
    except Exception as error:  # noqa: BLE001 - a mutant may crash the run
        found = [f"raised {error!r}"]
    assert found, f"the scenario passes with {arm[2]!r} skipped"
