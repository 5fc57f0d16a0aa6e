"""The guarantee monitor kills a broken runtime: one mutant per mechanism.

Each case breaks one mechanism the paper's guarantee rests on with a
``monkeypatch`` (the at-least-once baseline is the runtime's own switch),
runs a scenario that exercises it, and names the line of
:func:`repro.obs.guarantee_violations` that must report it. The same
scenario without the mutant is clean, so the clause -- not the scenario --
does the killing.
"""

from __future__ import annotations

import pytest

from repro.core import Actor, actor_proxy
from repro.core.dispatcher import ActorMailbox
from repro.core.reconciler import Reconciler
from repro.core.retention import RetentionSet
from repro.core.runtime import Component
from repro.obs import guarantee_violations

from helpers import make_app
from test_core_failures import RA, RB, find_host


def figure2(**overrides):
    """Figure 2's chain, A.main -> B.task -> A.callback, with A's host
    killed while B.task runs; the chain survives on ``rb``."""
    RA.intervals, RA.attempt = [], 0
    kernel, app = make_app(seed=9, cancellation=False, **overrides)
    app.register_actor(RA)
    app.register_actor(RB)
    for name, types in (("ra-1", ("RA",)), ("ra-2", ("RA",)), ("rb", ("RB",))):
        app.add_component(name, types)
    client = app.client()
    app.settle()
    ref = actor_proxy("RA", "a")
    task = kernel.spawn(
        client.invoke(None, ref, "main", (7,), True), process=client.process
    )
    kernel.run(until=kernel.now + 0.8)
    app.kill_component(find_host(app, ref))
    kernel.run(until=kernel.now + 30.0)
    assert task.done()
    return app


class Chain(Actor):
    async def first(self, ctx, v):
        await ctx.sleep(0.05)
        return ctx.tail_call(None, "second", v)

    async def second(self, ctx, v):
        await ctx.sleep(0.05)
        return v


def tail_chains(**overrides):
    """Four callers race for one actor whose every call is a tail call to
    itself: each chain holds the actor's lock from ``first`` to ``second``."""
    kernel, app = make_app(seed=12, **overrides)
    app.register_actor(Chain)
    app.add_component("w1", ("Chain",))
    client = app.client()
    app.settle()
    for value in range(4):
        kernel.spawn(
            client.invoke(None, actor_proxy("Chain", "c"), "first", (value,), True),
            process=client.process,
        )
    kernel.run(until=kernel.now + 5.0)
    return app


def nested_call(**overrides):
    """A nested call from a live caller, no failure: A.main -> B.task ->
    A.callback completes."""
    RA.intervals, RA.attempt = [], 0
    kernel, app = make_app(seed=13, **overrides)
    app.register_actor(RA)
    app.register_actor(RB)
    app.add_component("ra", ("RA",))
    app.add_component("rb", ("RB",))
    client = app.client()
    app.settle()
    task = kernel.spawn(
        client.invoke(None, actor_proxy("RA", "a"), "main", (7,), True),
        process=client.process,
    )
    kernel.run(until=kernel.now + 10.0)
    assert task.done()
    return app


def baseline(monkeypatch):
    return {"orchestrate_retries": False}


def reconciler_skips_pending_callee(monkeypatch):
    monkeypatch.setattr(
        Reconciler, "_pending_callee", staticmethod(lambda *_args: None)
    )
    return {}


def tail_lock_released_one_hop_early(monkeypatch):
    complete_frame = ActorMailbox.complete_frame
    monkeypatch.setattr(
        ActorMailbox,
        "complete_frame",
        lambda self, request, _tail_to_self: complete_frame(self, request, False),
    )
    return {}


def dedup_key_ignores_step(monkeypatch):
    # ``_handled`` holds (request, step) keys; ``_settled`` holds request ids.
    def request_only(key):
        return key[0] if isinstance(key, tuple) else key

    observe, contains = RetentionSet.observe, RetentionSet.__contains__
    monkeypatch.setattr(
        RetentionSet, "observe",
        lambda self, key, now: observe(self, request_only(key), now),
    )
    monkeypatch.setattr(
        RetentionSet, "__contains__",
        lambda self, key: contains(self, request_only(key)),
    )
    return {}


def cancellation_skips_live_caller_check(monkeypatch):
    monkeypatch.setattr(
        Component,
        "_should_elide",
        lambda self, request: self.config.cancellation
        and request.return_address is not None
        and self._live_members is not None,
    )
    return {}


MUTANTS = [
    (baseline, figure2, "stale callee: "),
    (reconciler_skips_pending_callee, figure2, "stale callee: "),
    (tail_lock_released_one_hop_early, tail_chains, "tail lock: "),
    (dedup_key_ignores_step, tail_chains, "unsettled: "),
    (cancellation_skips_live_caller_check, nested_call, "cancelled: "),
]


@pytest.mark.parametrize(
    "mutant, scenario, clause", MUTANTS, ids=[case[0].__name__ for case in MUTANTS]
)
def test_each_mutant_is_killed_by_its_clause(mutant, scenario, clause, monkeypatch):
    assert guarantee_violations(scenario()) == []
    found = guarantee_violations(scenario(**mutant(monkeypatch)))
    assert [line for line in found if line.startswith(clause)], found
