"""Actor lifecycle & memory management: idle passivation, bounded dedup
bookkeeping, batched state I/O, and the response-path regression fixes."""

import pytest

from repro.core import Actor, Response, actor_proxy
from repro.core.retention import RetentionSet
from repro.mq import BrokerConfig, StaleRouteError
from repro.sim import Latency

from helpers import make_app


class Counting(Actor):
    """Persists ``v``; counts lifecycle transitions on the class."""

    activations = 0
    deactivations = 0

    async def activate(self, ctx):
        Counting.activations += 1
        self.loaded = await ctx.state.get_all()
        self.v = self.loaded.get("v", 0)

    async def deactivate(self, ctx):
        Counting.deactivations += 1
        await ctx.state.set_multiple({"v": self.v, "flushed": True})

    async def set(self, ctx, v):
        self.v = v

    async def get(self, ctx):
        return self.v

    async def snapshot(self, ctx):
        return dict(self.loaded)


class SlowDeactivate(Counting):
    """Deactivate takes simulated time; flags while it is in progress."""

    in_deactivate = False
    current = None

    async def deactivate(self, ctx):
        SlowDeactivate.in_deactivate = True
        SlowDeactivate.current = ctx.self_ref.id
        await ctx.sleep(0.5)
        await ctx.state.set_multiple({"v": self.v, "flushed": True})
        SlowDeactivate.in_deactivate = False


class Chainer(Actor):
    """A slow tail-call chain to self: holds the actor lock throughout."""

    activations = 0

    async def activate(self, ctx):
        Chainer.activations += 1

    async def chain(self, ctx, n):
        await ctx.sleep(0.3)
        if n == 0:
            return "done"
        return ctx.tail_call(None, "chain", n - 1)


def reset_counters():
    Counting.activations = 0
    Counting.deactivations = 0
    SlowDeactivate.in_deactivate = False
    Chainer.activations = 0


def lifecycle_app(seed=200, actor_class=Counting, **overrides):
    reset_counters()
    overrides.setdefault("idle_passivation_timeout", 1.0)
    overrides.setdefault("maintenance_interval", 0.2)
    kernel, app = make_app(seed, **overrides)
    name = app.register_actor(actor_class)
    app.add_component("w1", (name,))
    app.client()
    app.settle()
    return kernel, app


# ---------------------------------------------------------------------------
# idle passivation
# ---------------------------------------------------------------------------

def test_idle_actor_is_passivated_and_reactivated_transparently():
    kernel, app = lifecycle_app()
    worker = app.components["w1"]
    ref = actor_proxy("Counting", "c")
    app.run_call(ref, "set", 41)
    assert len(worker._instances) == 1 and len(worker._mailboxes) == 1
    kernel.run(until=kernel.now + 5.0)
    # Idle past the timeout: instance, mailbox, cache, and stamp evicted.
    assert worker._instances == {}
    assert worker._mailboxes == {}
    assert worker._state_caches == {}
    assert worker._last_active == {}
    assert Counting.deactivations == 1
    assert worker.passivations == 1
    assert app.trace.count("actor.passivate", actor=str(ref)) == 1
    # The next request transparently re-activates from persisted state.
    assert app.run_call(ref, "get") == 41
    assert Counting.activations == 2


def test_reactivation_reads_back_exactly_the_flushed_state():
    kernel, app = lifecycle_app(seed=201)
    ref = actor_proxy("Counting", "c")
    app.run_call(ref, "set", 7)  # volatile only; deactivate must flush it
    kernel.run(until=kernel.now + 5.0)
    assert Counting.deactivations == 1
    assert app.run_call(ref, "snapshot") == {"v": 7, "flushed": True}
    assert app.run_call(ref, "get") == 7


def test_request_arriving_mid_deactivate_waits_then_reactivates():
    kernel, app = lifecycle_app(seed=202, actor_class=SlowDeactivate)
    ref = actor_proxy("SlowDeactivate", "s")
    app.run_call(ref, "set", 9)
    # Drive until the deactivate hook is underway.
    deadline = kernel.now + 10.0
    while not SlowDeactivate.in_deactivate:
        assert kernel.now < deadline, "passivation never started"
        kernel.run(until=kernel.now + 0.05)
    # A request lands mid-deactivate: it must queue behind the teardown,
    # then re-activate and observe the flushed state.
    assert app.run_call(ref, "get") == 9
    assert not SlowDeactivate.in_deactivate
    assert Counting.activations == 2
    worker = app.components["w1"]
    assert len(worker._instances) == 1  # resident again after re-activation


def test_tail_call_chain_pins_actor_against_eviction():
    kernel, app = lifecycle_app(
        seed=203, actor_class=Chainer, idle_passivation_timeout=0.4
    )
    ref = actor_proxy("Chainer", "c")
    # 8 links x 0.3s of work each: far longer than the idle timeout, but
    # the tail lock keeps the mailbox busy, so the chain is never evicted.
    assert app.run_call(ref, "chain", 7) == "done"
    assert Chainer.activations == 1
    assert app.trace.count("actor.passivate", actor=str(ref)) == 0
    # Once the chain completes and the actor goes idle, eviction resumes.
    kernel.run(until=kernel.now + 3.0)
    assert app.trace.count("actor.passivate", actor=str(ref)) == 1


def test_activity_during_sweep_defers_later_passivations():
    # Two idle actors are listed in one sweep; the first has a slow
    # deactivate hook, and the second serves a request meanwhile -- its
    # idle clock must be re-checked at its turn, not the sweep snapshot.
    kernel, app = lifecycle_app(seed=205, actor_class=SlowDeactivate)
    a, b = actor_proxy("SlowDeactivate", "a"), actor_proxy("SlowDeactivate", "b")
    app.run_call(a, "set", 1)
    app.run_call(b, "set", 2)
    deadline = kernel.now + 10.0
    while SlowDeactivate.current != "a":
        assert kernel.now < deadline, "first passivation never started"
        kernel.run(until=kernel.now + 0.05)
    assert app.run_call(b, "get") == 2  # fresh activity on b mid-sweep
    kernel.run(until=kernel.now + 0.6)  # let a's passivation finish
    worker = app.components["w1"]
    assert app.trace.count("actor.passivate", actor=str(a)) == 1
    assert app.trace.count("actor.passivate", actor=str(b)) == 0
    assert b in worker._instances  # b stayed resident through the sweep
    kernel.run(until=kernel.now + 3.0)  # now b goes genuinely idle
    assert app.trace.count("actor.passivate", actor=str(b)) == 1


def test_passivation_disabled_keeps_instances_resident():
    kernel, app = make_app(seed=204)  # default: no idle timeout
    app.register_actor(Counting)
    app.add_component("w1", ("Counting",))
    app.client()
    app.settle()
    reset_counters()
    app.run_call(actor_proxy("Counting", "c"), "set", 1)
    kernel.run(until=kernel.now + 10.0)
    assert len(app.components["w1"]._instances) == 1
    assert Counting.deactivations == 0


# ---------------------------------------------------------------------------
# bounded dedup bookkeeping
# ---------------------------------------------------------------------------

def test_dedup_evidence_swept_in_step_with_broker_retention():
    kernel, app = make_app(
        seed=210,
        broker=BrokerConfig(
            produce_latency=Latency.fixed(0.001),
            consume_latency=Latency.fixed(0.0005),
            heartbeat_interval=0.3,
            session_timeout=1.0,
            watchdog_interval=0.1,
            rebalance_join_window=0.2,
            rebalance_sync_latency=Latency.around(0.05, 0.02),
            retention_seconds=5.0,
        ),
        dedup_retention_slack=1.0,
        maintenance_interval=0.2,
    )
    app.register_actor(Counting)
    app.add_component("w1", ("Counting",))
    client = app.client()
    app.settle()
    reset_counters()
    worker = app.components["w1"]
    for i in range(5):
        app.run_call(actor_proxy("Counting", f"c{i}"), "set", i)
    assert len(worker._handled) >= 5
    assert len(client._settled) >= 5
    # Past the retention horizon (+slack) the evidence is garbage-collected.
    kernel.run(until=kernel.now + 10.0)
    assert len(worker._handled) == 0
    assert len(client._settled) == 0
    assert worker._handled.swept_total >= 5


def test_retention_set_observe_sweep_and_refresh():
    rs = RetentionSet()
    assert rs.observe("a", 1.0) is False
    assert rs.observe("b", 2.0) is False
    assert rs.observe("a", 3.0) is True  # duplicate sighting refreshes "a"
    assert "a" in rs and "b" in rs and len(rs) == 2
    assert rs.sweep(2.5) == 1  # only "b" (stamp 2.0) has expired
    assert "b" not in rs and "a" in rs
    assert rs.sweep(10.0) == 1
    assert len(rs) == 0 and rs.swept_total == 2
    rs.add("c", 5.0)
    rs.discard("c")
    assert "c" not in rs


# ---------------------------------------------------------------------------
# batched state I/O
# ---------------------------------------------------------------------------

class Stateful(Actor):
    async def put(self, ctx, field, value):
        await ctx.state.set(field, value)

    async def put_many(self, ctx, updates):
        await ctx.state.set_multiple(updates)

    async def read(self, ctx, field):
        return await ctx.state.get(field)

    async def read_many(self, ctx, fields):
        return await ctx.state.get_multiple(tuple(fields))

    async def read_all(self, ctx):
        return await ctx.state.get_all()

    async def drop(self, ctx, field):
        return await ctx.state.remove(field)

    async def poke_other(self, ctx, other_type, other_id, field, value):
        ref = actor_proxy(other_type, other_id)
        await ctx.state_of(ref).set(field, value)


def stateful_app(seed=220, **overrides):
    kernel, app = make_app(seed, **overrides)
    app.register_actor(Stateful)
    app.add_component("w1", ("Stateful",))
    app.client()
    app.settle()
    return kernel, app


def test_set_multiple_costs_one_round_trip():
    kernel, app = stateful_app()
    ref = actor_proxy("Stateful", "s")
    updates = {f"f{i}": i for i in range(8)}
    app.run_call(ref, "put_many", {"warm": 0})  # place actor, warm caches
    before = app.store.operation_count
    app.run_call(ref, "put_many", updates)
    assert app.store.operation_count - before == 1  # one RTT for 8 fields
    assert app.run_call(ref, "read_all") == {"warm": 0, **updates}


def test_get_multiple_costs_at_most_one_round_trip():
    kernel, app = stateful_app(seed=221)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put_many", {"a": 1, "b": 2})
    before = app.store.operation_count
    assert app.run_call(ref, "read_many", ("a", "b", "missing")) == {
        "a": 1,
        "b": 2,
        "missing": None,
    }
    assert app.store.operation_count - before == 1


def test_hot_reads_served_from_write_through_cache():
    kernel, app = stateful_app(seed=222)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put_many", {"a": 1, "b": 2})
    before = app.store.operation_count
    # The write-through cache knows every field just written: zero RTTs.
    assert app.run_call(ref, "read", "a") == 1
    assert app.run_call(ref, "read_many", ("a", "b")) == {"a": 1, "b": 2}
    assert app.store.operation_count == before


def test_get_all_agrees_warm_and_cold_for_none_and_removed_fields():
    # A stored None and a removed field must read identically through the
    # warm cache and straight from the store.
    kernel, app = stateful_app(seed=224)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put", "flag", None)
    app.run_call(ref, "put", "gone", 1)
    app.run_call(ref, "drop", "gone")
    api = app.api("client")

    def cold(operation):
        return kernel.run_until_complete(kernel.spawn(operation))

    assert app.run_call(ref, "read_all") == {"flag": None}
    assert cold(api.state_all("Stateful", "s")) == {"flag": None}
    assert app.run_call(ref, "read", "flag") is None
    assert cold(api.state_get("Stateful", "s", "flag")) == (True, None)
    assert app.run_call(ref, "read", "gone") is None
    assert cold(api.state_get("Stateful", "s", "gone")) == (False, None)


def test_state_of_write_stays_coherent_with_resident_cache():
    kernel, app = stateful_app(seed=226)
    target = actor_proxy("Stateful", "target")
    peeker = actor_proxy("Stateful", "peeker")
    app.run_call(target, "put_many", {"a": 1})
    assert app.run_call(target, "read", "a") == 1  # warm cache on target
    # Another actor on the same component writes through state_of: the
    # resident instance's cache must observe it (shared cache).
    app.run_call(peeker, "poke_other", "Stateful", "target", "a", 99)
    assert app.run_call(target, "read", "a") == 99


def test_cache_dropped_on_passivation_rereads_store():
    kernel, app = make_app(
        seed=223, idle_passivation_timeout=1.0, maintenance_interval=0.2
    )
    app.register_actor(Stateful)
    app.add_component("w1", ("Stateful",))
    app.client()
    app.settle()
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put_many", {"a": 1})
    kernel.run(until=kernel.now + 5.0)  # passivated; cache evicted
    assert app.components["w1"]._state_caches == {}
    assert app.run_call(ref, "read", "a") == 1  # re-read from the store


# ---------------------------------------------------------------------------
# regression: stale-route retry must invalidate the resolved placement
# ---------------------------------------------------------------------------

def test_send_response_invalidates_placement_on_stale_route():
    from repro.core.envelope import Request

    kernel, app = make_app(seed=230)
    app.register_actor(Counting)
    app.add_component("w1", ("Counting",))
    app.add_component("w2", ("Counting",))
    app.settle()
    executor = app.components["w2"]
    caller_ref = actor_proxy("Counting", "caller")

    invalidated = []
    original = executor.placement.invalidate_components

    def recording(names):
        invalidated.append(set(names))
        return original(names)

    executor.placement.invalidate_components = recording

    fails = {"left": 2}
    original_send = executor.member.send

    async def flaky_send(partition, value):
        if fails["left"] > 0:
            fails["left"] -= 1
            raise StaleRouteError(partition)
        return await original_send(partition, value)

    executor.member.send = flaky_send

    # The caller's component is dead (reply_to unknown), so the response
    # must follow the caller *actor*'s placement; the first sends raise
    # StaleRouteError and each retry must re-resolve a fresh entry instead
    # of spinning on the cached dead one.
    request = Request(
        request_id="r900",
        step=0,
        actor=actor_proxy("Counting", "callee"),
        method="get",
        args=(),
        return_address="r800",
        reply_to="dead#0",
        caller_actor=caller_ref,
        caller_member="dead#0",
        expects_reply=True,
    )
    response = Response("r900", value=5)

    task = kernel.spawn(
        executor.router.send_response(request, response), executor.process
    )
    kernel.run_until_complete(task, timeout=60.0)
    assert fails["left"] == 0
    # Each stale send invalidated the placement entry it had resolved.
    assert len(invalidated) >= 2
    for names in invalidated:
        assert names  # never an empty invalidation
    assert app.trace.count("response.sent", request="r900") == 1


# ---------------------------------------------------------------------------
# regression: late duplicate responses never resolve a pending future
# ---------------------------------------------------------------------------

def test_late_duplicate_response_does_not_resolve_pending_future():
    kernel, app = make_app(seed=231)
    app.register_actor(Counting)
    app.add_component("w1", ("Counting",))
    app.settle()
    worker = app.components["w1"]

    # The caller already observed a synthetic cancellation for r1 ...
    worker._handle_response(Response("r1", cancelled=True))
    assert "r1" in worker._settled
    # ... then a future is (erroneously, via the race) pending under the
    # same id when the real response finally lands.
    future = kernel.create_future()
    worker._pending_calls["r1"] = future
    worker._handle_response(Response("r1", value=42))
    assert not future.done()  # the late duplicate must not settle it
    assert app.trace.count("response.duplicate", request="r1") == 1
    # A fresh id still resolves normally.
    future2 = kernel.create_future()
    worker._pending_calls["r2"] = future2
    worker._handle_response(Response("r2", value=1))
    assert future2.done() and future2.result().value == 1


def test_duplicate_response_still_releases_parked_requests():
    from repro.core.envelope import Request

    kernel, app = make_app(seed=232)
    app.register_actor(Counting)
    app.add_component("w1", ("Counting",))
    app.settle()
    worker = app.components["w1"]
    worker._handle_response(Response("r1", value=1))  # settles r1
    parked = Request(
        request_id="r5",
        step=0,
        actor=actor_proxy("Counting", "p"),
        method="get",
        args=(),
        return_address=None,
        reply_to=None,
        caller_actor=None,
        caller_member=None,
        after_callee="r1",
    )
    worker._parked.setdefault("r1", []).append(parked)
    worker._handle_response(Response("r1", value=1))  # duplicate
    assert worker._parked == {}  # happen-before release is idempotent
    kernel.run(until=kernel.now + 1.0)  # drain the released executor
