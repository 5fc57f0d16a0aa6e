"""A payload the durable log refuses fails its own call and nothing else.

On ``PersistenceConfig.sqlite`` every envelope is framed into the journal at
its produce; ``persist.framing`` refuses values it cannot encode. The refusal
must reach the sender that owns the payload -- as an ``ActorMethodError`` at
the caller -- and leave the component's transport, the actor's lock and the
call table as they were.
"""

import pytest

from repro.core import Actor, ActorMethodError, KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel

from oracle import check_guarantee


class Unframeable:
    """Holds a lambda, which the journal's pickle fallback cannot encode."""

    def __init__(self):
        self.hook = lambda: None


class Mint(Actor):
    async def echo(self, ctx, payload):
        return payload

    async def mint(self, ctx):
        return Unframeable()

    async def hand_over(self, ctx):
        return ctx.tail_call(None, "echo", Unframeable())


@pytest.fixture
def durable_app(tmp_path):
    kernel = Kernel(seed=17)
    config = KarConfig.fast_test().with_overrides(
        persistence=PersistenceConfig.sqlite(str(tmp_path / "durable"))
    )
    app = KarApplication.fresh(kernel, config, name="refuse")
    app.add_component("w1", (app.register_actor(Mint),))
    app.client()
    app.settle()
    yield kernel, app
    app.shutdown()


async def outcome_of(client, ref, method, *args):
    """The call's value, or the error it raised (not a crashed task)."""
    try:
        return await client.invoke(None, ref, method, args)
    except ActorMethodError as error:
        return error


def call(kernel, app, ref, method, *args):
    client = app.client()
    task = kernel.spawn(outcome_of(client, ref, method, *args), client.process)
    return kernel.run_until_complete(task, timeout=5.0)


def assert_refused(outcome):
    assert isinstance(outcome, ActorMethodError)
    assert "FramingError" in outcome.message


def assert_healthy(kernel, app, same, other):
    """The transport, both actors and the call table still work."""
    assert call(kernel, app, same, "echo", "again") == "again"
    assert call(kernel, app, other, "echo", "other") == "other"
    assert all(component.alive for component in app.components.values())
    check_guarantee(app)


def test_refused_argument_fails_only_its_caller(durable_app):
    kernel, app = durable_app
    same, other = actor_proxy("Mint", "a"), actor_proxy("Mint", "b")
    assert call(kernel, app, same, "echo", "warm") == "warm"
    assert_refused(call(kernel, app, same, "echo", Unframeable()))
    assert_healthy(kernel, app, same, other)


@pytest.mark.parametrize("method", ["mint", "hand_over"])
def test_refused_result_or_successor_is_an_error_response(durable_app, method):
    kernel, app = durable_app
    same, other = actor_proxy("Mint", "a"), actor_proxy("Mint", "b")
    assert_refused(call(kernel, app, same, method))
    assert_healthy(kernel, app, same, other)


def test_refused_entry_in_a_batch_fails_only_its_sender(durable_app):
    kernel, app = durable_app
    client = app.client()
    refs = [actor_proxy("Mint", f"m{i}") for i in range(4)]
    for ref in refs:
        call(kernel, app, ref, "echo", "warm")
    payloads = ["p0", Unframeable(), "p2", "p3"]
    batches = client.router.batches_flushed
    tasks = [
        kernel.spawn(outcome_of(client, ref, "echo", payload), client.process)
        for ref, payload in zip(refs, payloads)
    ]
    outcomes = kernel.run_until_complete(kernel.gather(tasks), timeout=5.0)
    assert outcomes[0] == "p0" and outcomes[2:] == ["p2", "p3"]
    assert_refused(outcomes[1])
    # One refused batch of four, then the four entries one by one.
    assert client.router.batches_flushed - batches == 1 + 4
    assert_healthy(kernel, app, refs[1], refs[0])
