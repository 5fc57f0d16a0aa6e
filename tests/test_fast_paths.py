"""The per-hop fast paths keep the semantics of the calls they skip.

A fixed latency is read (``Latency.fixed``) instead of sampled, the runtime's
own sleeps skip ``Kernel.sleep``'s argument check, and ``SimTask._on_future``
dispatches on the exact type of what a coroutine yields. None of that may
move a random draw or a simulated instant: every hot site must leave
``kernel.rng`` exactly where ``Latency.sample`` would, and sleep exactly the
sampled delay.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from helpers import Latch, make_app
from repro.core import actor_proxy
from repro.kvstore import KVStore
from repro.mq import Broker, BrokerConfig
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


@pytest.mark.parametrize("latency", [JITTERED, Latency.fixed(0.001)])
def test_store_round_trip_samples_like_sample(latency):
    kernel = Kernel(seed=SEED)
    store = KVStore(kernel, latency)
    start = kernel.rng.getstate()
    took = drive(kernel, lambda: store.connection_round_trip("c"))
    rng, samples = reference(start, [latency] * ROUNDS)
    assert kernel.rng.getstate() == rng.getstate()
    assert took == pytest.approx(samples, rel=1e-9)


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


class _Bogus:
    def __await__(self):
        yield "not a delay"
