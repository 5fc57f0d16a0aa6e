"""The value-type contract of the envelopes built by ``slot_init``.

``Request``, ``Response`` and ``Record`` are frozen slotted dataclasses whose
``__init__`` stores each field through its slot's member descriptor
(``repro.persist.valuetypes.slot_init``). Everything else about them must be
what the dataclass decorator made: the frozen guard, the signature and
defaults, ``replace``, equality, hashing, ``repr``, pickling, and the bytes
the journal and the store write. "As before" is spelled out as a build the
way the generated ``__init__`` did it: ``object.__setattr__`` per field,
every default filled in.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    replace,
)

import pytest

from repro.core import Actor, actor_proxy
from repro.core.envelope import Request, Response
from repro.core.refs import ActorRef
from repro.core.router import Router
from repro.mq.records import Record
from repro.persist import framing
from repro.persist.valuetypes import slot_init

from helpers import make_app

A = ActorRef("A", "1")
B = ActorRef("B", "2")

FULL_REQUEST = dict(
    request_id="r1",
    step=3,
    actor=A,
    method="m",
    args=(1, "two", 3.5, None, (4,), {"k": [5, 6]}, b"\x00", A),
    return_address="r0",
    reply_to="comp#0",
    caller_actor=B,
    caller_member="comp#1",
    ancestors=("root", "r0"),
    tail_lock=True,
    after_callee="r9",
    copy_epoch=4,
    expects_reply=False,
    attempts=2,
    attempt_log=(0.5, 1.5),
)
#: Every field shape each type carries: required fields only (defaults
#: filled in), every field away from its default, ``None`` where a field
#: may be ``None``, empty and nested containers, and envelopes inside
#: records.
CORPUS: dict[type, list[dict]] = {
    Request: [
        FULL_REQUEST,
        dict(
            request_id="r2",
            step=0,
            actor=B,
            method="tell",
            args=(),
            return_address=None,
            reply_to=None,
            caller_actor=None,
            caller_member=None,
        ),
        dict(FULL_REQUEST, ancestors=(), attempt_log=(), after_callee=None),
    ],
    Response: [
        dict(request_id="r1"),
        dict(request_id="r2", value={"result": (1, None), "xs": [1.5, "s"]}),
        dict(request_id="r3", error="ValueError: boom"),
        dict(request_id="r4", cancelled=True),
        dict(request_id="r5", value=A, error=None, cancelled=False),
    ],
    Record: [
        dict(partition="w1#0", offset=0, timestamp=0.0, value="v"),
        dict(partition="w1#0", offset=7, timestamp=12.25, value=None),
        dict(partition="w2#3", offset=1 << 40, timestamp=1e9, value=(1, [2], {})),
        dict(
            partition="w1#0",
            offset=5,
            timestamp=3.0,
            value=Request(**FULL_REQUEST),
        ),
        dict(partition="w1#0", offset=6, timestamp=3.5, value=Response("r1", 9)),
    ],
}
CASES = [(cls, kwargs) for cls, corpus in CORPUS.items() for kwargs in corpus]
IDS = [f"{cls.__name__}-{index}" for index, (cls, _kwargs) in enumerate(CASES)]


def built_as_before(cls: type, kwargs: dict):
    """The instance the dataclass-generated ``__init__`` would have made."""
    instance = object.__new__(cls)
    for each in fields(cls):
        value = kwargs.get(each.name, each.default)
        assert value is not MISSING, each.name
        object.__setattr__(instance, each.name, value)
    return instance


def outcome(function):
    """What ``function()`` returns, or the type of what it raises."""
    try:
        return function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error)


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_built_values_equal_the_dataclass_build(cls, kwargs):
    built = cls(**kwargs)
    before = built_as_before(cls, kwargs)
    positional = cls(*(kwargs.get(f.name, f.default) for f in fields(cls)))
    for each in fields(cls):
        assert getattr(built, each.name) is getattr(before, each.name)
    assert built == before == positional
    # Unhashable field values make all three raise alike.
    values = tuple(getattr(built, f.name) for f in fields(cls))
    hashed = outcome(lambda: hash(built))
    assert hashed == outcome(lambda: hash(before)) == outcome(lambda: hash(values))
    assert hashed == outcome(lambda: hash(positional))
    assert repr(built) == repr(before)
    if cls is not Record:  # Record keeps its own short repr
        shown = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(cls), values))
        assert repr(built) == f"{cls.__qualname__}({shown})"
    assert framing.encode_value(built) == framing.encode_value(before)
    assert framing.dumps_frame(built) == framing.dumps_frame(before)
    value, _end = framing.decode_value(framing.encode_value(built))
    assert value == built and type(value) is cls
    copy = pickle.loads(pickle.dumps(built))
    assert copy == built and type(copy) is cls


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_frozen_guard_and_replace_are_unchanged(cls, kwargs):
    built = cls(**kwargs)
    for each in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(built, each.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(built, each.name)
    for each in fields(cls):
        other = (0,) if getattr(built, each.name) != (0,) else (1,)
        changed = replace(built, **{each.name: other})
        assert getattr(changed, each.name) == other
        assert changed == built_as_before(cls, dict(kwargs, **{each.name: other}))
    assert replace(built) == built


@pytest.mark.parametrize("cls", list(CORPUS))
def test_signature_names_and_defaults_are_the_fields(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in fields(cls)]
    for parameter, each in zip(parameters, fields(cls)):
        assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        expected = each.default
        if expected is MISSING:
            expected = inspect.Parameter.empty
        assert parameter.default == expected, each.name
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*range(len(fields(cls)) + 1))


def test_slot_init_refuses_what_it_cannot_build():
    @dataclass(frozen=True, slots=True)
    class WithPostInit:
        x: int

        def __post_init__(self) -> None:
            pass

    @dataclass(frozen=True, slots=True)
    class WithFactory:
        xs: list = field(default_factory=list)

    @dataclass(frozen=True, slots=True)
    class WithoutInit:
        x: int = field(default=0, init=False)

    @dataclass(frozen=True)
    class Unslotted:
        x: int

    @dataclass(slots=True)
    class Mutable:
        x: int

    for cls in (WithPostInit, WithFactory, WithoutInit, Unslotted, Mutable, int):
        with pytest.raises(TypeError):
            slot_init(cls)


class Caller(Actor):
    async def call(self, ctx, target):
        await ctx.tell(actor_proxy("Callee", "tell"), "noop")
        return await ctx.call(actor_proxy("Callee", target), "echo", target, 2)


class Callee(Actor):
    async def echo(self, ctx, *args):
        return args

    async def noop(self, ctx):
        return None


def test_invoke_builds_the_request_a_keyword_build_over_every_field_would(
    monkeypatch,
):
    """``Component.invoke`` builds its ``Request`` positionally; a field
    added to the class and forgotten there would take the wrong slot or
    silently keep its default."""
    routed: list[Request] = []
    route_request = Router.route_request

    async def recording(router, request):
        routed.append(request)
        await route_request(router, request)

    monkeypatch.setattr(Router, "route_request", recording)
    kernel, app = make_app(seed=4)
    app.register_actor(Caller)
    app.register_actor(Callee)
    app.add_component("w1", ("Caller", "Callee"))
    client = app.client()
    app.settle()
    root = actor_proxy("Caller", "c1")
    assert app.run_call(root, "call", "t1") == ("t1", 2)

    by_method = {request.method: request for request in routed}
    assert set(by_method) == {"call", "noop", "echo"}
    call = by_method["call"]
    member = app.components["w1"].member_id
    expected = {
        "call": dict(
            request_id=call.request_id,
            step=0,
            actor=root,
            method="call",
            args=("t1",),
            return_address=None,
            reply_to=client.member_id,
            caller_actor=None,
            caller_member=client.member_id,
            ancestors=(),
            tail_lock=False,
            after_callee=None,
            copy_epoch=0,
            expects_reply=True,
            attempts=0,
            attempt_log=(),
        ),
        "noop": dict(
            request_id=by_method["noop"].request_id,
            step=0,
            actor=actor_proxy("Callee", "tell"),
            method="noop",
            args=(),
            return_address=None,
            reply_to=None,
            caller_actor=root,
            caller_member=member,
            ancestors=(),
            tail_lock=False,
            after_callee=None,
            copy_epoch=0,
            expects_reply=False,
            attempts=0,
            attempt_log=(),
        ),
        "echo": dict(
            request_id=by_method["echo"].request_id,
            step=0,
            actor=actor_proxy("Callee", "t1"),
            method="echo",
            args=("t1", 2),
            return_address=call.request_id,
            reply_to=member,
            caller_actor=root,
            caller_member=member,
            ancestors=(call.request_id,),
            tail_lock=False,
            after_callee=None,
            copy_epoch=0,
            expects_reply=True,
            attempts=0,
            attempt_log=(),
        ),
    }
    names = [each.name for each in fields(Request)]
    for method, keywords in expected.items():
        assert list(keywords) == names, method  # every field, named once
        built = by_method[method]
        for name in names:
            assert getattr(built, name) == keywords[name], (method, name)
        assert built == Request(**keywords)
    kernel.check_no_crashes()
