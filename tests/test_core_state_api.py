"""The actor.state persistence API and context surface."""

import pytest

from repro.core import Actor, actor_proxy
from repro.kvstore import KVStore
from repro.sim import Latency

from helpers import make_app


class Stateful(Actor):
    async def activate(self, ctx):
        self.loaded = await ctx.state.get_all()

    async def put(self, ctx, field, value):
        await ctx.state.set(field, value)

    async def put_many(self, ctx, updates):
        await ctx.state.set_multiple(updates)

    async def read(self, ctx, field, default=None):
        return await ctx.state.get(field, default)

    async def read_all(self, ctx):
        return await ctx.state.get_all()

    async def drop(self, ctx, field):
        return await ctx.state.remove(field)

    async def wipe(self, ctx):
        return await ctx.state.remove_all()

    async def introspect(self, ctx):
        return {
            "self_ref": str(ctx.self_ref),
            "request_id": ctx.request_id,
            "now": ctx.now,
            "component": ctx.component_name,
            "member": ctx.member_id,
        }

    async def peek_other(self, ctx, other_type, other_id):
        ref = actor_proxy(other_type, other_id)
        return await ctx.state_of(ref).get_all()


def state_app(seed=81):
    kernel, app = make_app(seed)
    app.register_actor(Stateful)
    app.add_component("w1", ("Stateful",))
    app.client()
    app.settle()
    return kernel, app


def test_set_get_roundtrip():
    kernel, app = state_app()
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put", "x", 1)
    assert app.run_call(ref, "read", "x") == 1
    assert app.run_call(ref, "read", "missing", "fallback") == "fallback"


def test_set_multiple_and_get_all():
    kernel, app = state_app(82)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put_many", {"a": 1, "b": 2})
    assert app.run_call(ref, "read_all") == {"a": 1, "b": 2}


def test_remove_field():
    kernel, app = state_app(83)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put", "x", 1)
    assert app.run_call(ref, "drop", "x") is True
    assert app.run_call(ref, "drop", "x") is False
    assert app.run_call(ref, "read", "x") is None


def test_remove_all():
    kernel, app = state_app(84)
    ref = actor_proxy("Stateful", "s")
    app.run_call(ref, "put_many", {"a": 1, "b": 2})
    assert app.run_call(ref, "wipe") is True
    assert app.run_call(ref, "read_all") == {}


def test_state_is_per_instance():
    kernel, app = state_app(85)
    app.run_call(actor_proxy("Stateful", "s1"), "put", "x", 1)
    app.run_call(actor_proxy("Stateful", "s2"), "put", "x", 2)
    assert app.run_call(actor_proxy("Stateful", "s1"), "read", "x") == 1
    assert app.run_call(actor_proxy("Stateful", "s2"), "read", "x") == 2


def test_state_of_other_instance():
    kernel, app = state_app(86)
    app.run_call(actor_proxy("Stateful", "target"), "put", "k", 9)
    peeked = app.run_call(
        actor_proxy("Stateful", "peeker"), "peek_other", "Stateful", "target"
    )
    assert peeked == {"k": 9}


def test_context_introspection():
    kernel, app = state_app(87)
    info = app.run_call(actor_proxy("Stateful", "s"), "introspect")
    assert info["self_ref"] == "Stateful[s]"
    assert info["request_id"].startswith("r")
    assert info["component"] == "w1"
    assert info["member"].startswith("w1#")
    assert info["now"] > 0


def test_external_service_client_bound_to_member():
    kernel, app = make_app(seed=88)
    service = app.register_external_service(
        KVStore(kernel, Latency.fixed(0.001))
    )

    class Uses(Actor):
        async def stash(self, ctx, v):
            await ctx.external(service).set("k", v)
            return ctx.member_id

    app.register_actor(Uses)
    app.add_component("w1", ("Uses",))
    app.client()
    app.settle()
    member = app.run_call(actor_proxy("Uses", "u"), "stash", 5)
    assert member == app.components["w1"].member_id
    assert service.backend.get("k") == 5
    # Fencing that member blocks its lingering writes.
    service.fence(member)
    from repro.kvstore import FencedClientError

    async def lingering():
        with pytest.raises(FencedClientError):
            await service.client(member).set("k", 6)

    kernel.run_until_complete(kernel.spawn(lingering()), timeout=30.0)
