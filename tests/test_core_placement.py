"""Placement: CAS coordination, caching, invalidation, re-placement."""

import pytest

from repro.core import PlacementService, actor_proxy
from repro.core.placement import placement_key
from repro.kvstore import KVStore
from repro.sim import Kernel, Latency

from helpers import Latch, make_app, two_component_app


def run(kernel, coro):
    return kernel.run_until_complete(kernel.spawn(coro), timeout=60.0)


def test_resolve_is_deterministic_and_sticky():
    kernel = Kernel(seed=1)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))
    ref = actor_proxy("T", "x")

    async def scenario():
        first = await service.resolve(ref, ["c1", "c2", "c3"])
        second = await service.resolve(ref, ["c1", "c2", "c3"])
        return first, second

    first, second = run(kernel, scenario())
    assert first == second


def test_concurrent_resolvers_agree():
    kernel = Kernel(seed=2)
    store = KVStore(kernel, Latency.fixed(0.001))
    ref = actor_proxy("T", "x")
    services = [PlacementService(store.client(f"c{i}")) for i in range(4)]

    async def resolver(service):
        return await service.resolve(ref, ["c1", "c2"])

    tasks = [kernel.spawn(resolver(s)) for s in services]
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=60.0)
    assert len(set(results)) == 1


def test_cache_skips_store_reads():
    kernel = Kernel(seed=3)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"), cache_enabled=True)
    ref = actor_proxy("T", "x")
    run(kernel, service.resolve(ref, ["c1"]))
    before = store.operation_count
    run(kernel, service.resolve(ref, ["c1"]))
    assert store.operation_count == before  # pure cache hit


def test_no_cache_reads_store_every_time():
    kernel = Kernel(seed=4)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"), cache_enabled=False)
    ref = actor_proxy("T", "x")
    run(kernel, service.resolve(ref, ["c1"]))
    before = store.operation_count
    run(kernel, service.resolve(ref, ["c1"]))
    assert store.operation_count > before


def test_invalidation_forces_replacement():
    kernel = Kernel(seed=5)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))
    ref = actor_proxy("T", "x")
    # "dead" is the only candidate at first, so the placement cannot land on
    # the survivor whatever the hash does.
    assert run(kernel, service.resolve(ref, ["dead"])) == "dead"
    assert service.cache_peek(ref) == "dead"
    service.invalidate_components({"dead"})
    assert service.cache_peek(ref) is None
    moved = run(kernel, service.resolve(ref, ["alive"]))
    assert moved == "alive"


def test_resolve_rejects_empty_candidates():
    kernel = Kernel(seed=6)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))

    from repro.core import NoPlacementError

    async def scenario():
        with pytest.raises(NoPlacementError):
            await service.resolve(actor_proxy("T", "x"), [])

    run(kernel, scenario())


def test_actor_lands_on_supporting_component_only():
    kernel, app = make_app(seed=7)
    app.register_actor(Latch)

    class Other(Latch):
        pass

    app.register_actor(Other, name="Other")
    app.add_component("latches", ("Latch",))
    app.add_component("others", ("Other",))
    app.client()
    app.settle()
    app.run_call(actor_proxy("Latch", "a"), "set", 1)
    app.run_call(actor_proxy("Other", "b"), "set", 2)
    assert actor_proxy("Latch", "a") in app.components["latches"]._instances
    assert actor_proxy("Other", "b") in app.components["others"]._instances


def test_placement_store_updated_after_failure():
    kernel, app = two_component_app(seed=8)
    ref = actor_proxy("Latch", "x")
    app.run_call(ref, "set", 3)
    host = next(
        name
        for name, comp in app.components.items()
        if comp.alive and ref in comp._instances
    )
    app.kill_component(host)
    kernel.run(until=kernel.now + 10.0)
    assert app.run_call(ref, "get", timeout=60.0) == 0  # rehomed, volatile
    placed = app.store.backend.get(placement_key(ref))
    assert placed != host


def test_replicas_share_load():
    kernel, app = two_component_app(seed=9)
    for i in range(20):
        app.run_call(actor_proxy("Latch", f"i{i}"), "set", i)
    w1 = len(app.components["w1"]._instances)
    w2 = len(app.components["w2"]._instances)
    assert w1 + w2 == 20
    assert w1 > 0 and w2 > 0  # crc32 spreads across replicas


# ---------------------------------------------------------------------------
# single-flight resolution: concurrent resolves share one store lookup
# ---------------------------------------------------------------------------

def test_concurrent_resolves_single_flight():
    kernel = Kernel(seed=10)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))
    ref = actor_proxy("T", "x")

    tasks = [
        kernel.spawn(service.resolve(ref, ["c1", "c2", "c3"]))
        for _ in range(8)
    ]
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=60.0)
    assert len(set(results)) == 1
    # One leader ran the GET+CAS; the other seven piggybacked.
    assert service.store_resolutions == 1
    assert service.shared_resolutions == 7
    # One GET plus one CAS, not eight of each.
    assert store.operation_count == 2
    # The flight is over: nothing left in the single-flight table.
    assert service._inflight == {}


def test_single_flight_distinct_refs_do_not_share():
    kernel = Kernel(seed=11)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))

    tasks = [
        kernel.spawn(service.resolve(actor_proxy("T", f"x{i}"), ["c1", "c2"]))
        for i in range(3)
    ]
    kernel.run_until_complete(kernel.gather(tasks), timeout=60.0)
    assert service.store_resolutions == 3
    assert service.shared_resolutions == 0


def test_single_flight_result_cached_for_followers():
    kernel = Kernel(seed=12)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"))
    ref = actor_proxy("T", "y")

    async def scenario():
        first = kernel.spawn(service.resolve(ref, ["c1", "c2"]))
        second = kernel.spawn(service.resolve(ref, ["c1", "c2"]))
        results = [await first, await second]
        # A later resolve is a pure cache hit (no new store traffic).
        before = store.operation_count
        third = await service.resolve(ref, ["c1", "c2"])
        assert store.operation_count == before
        return results + [third]

    results = run(kernel, scenario())
    assert len(set(results)) == 1


def test_no_cache_disables_single_flight_sharing():
    """The Table 2 'no cache' ablation pays full store cost per resolve:
    concurrent resolutions must not piggyback on each other either."""
    kernel = Kernel(seed=13)
    store = KVStore(kernel, Latency.fixed(0.001))
    service = PlacementService(store.client("a"), cache_enabled=False)
    ref = actor_proxy("T", "z")

    tasks = [
        kernel.spawn(service.resolve(ref, ["c1", "c2"])) for _ in range(4)
    ]
    results = kernel.run_until_complete(kernel.gather(tasks), timeout=60.0)
    assert len(set(results)) == 1
    assert service.store_resolutions == 4
    assert service.shared_resolutions == 0
