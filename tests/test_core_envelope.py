"""Unit tests for wire envelopes: tail successors, recovery copies."""

from dataclasses import fields, replace

from repro.core.envelope import Request, Response, TailCall
from repro.core.refs import ActorRef

A = ActorRef("A", "1")
B = ActorRef("B", "2")


def base_request(**overrides):
    fields = dict(
        request_id="r1",
        step=0,
        actor=A,
        method="m",
        args=(1, 2),
        return_address="r0",
        reply_to="comp#0",
        caller_actor=B,
        caller_member="comp#0",
        ancestors=("r0",),
    )
    fields.update(overrides)
    return Request(**fields)


def test_dedup_key_is_id_and_step():
    assert base_request().dedup_key == ("r1", 0)
    assert base_request(step=3).dedup_key == ("r1", 3)


def test_tail_successor_to_self_keeps_lock():
    request = base_request()
    successor = request.tail_successor(A, "next", (9,), current=A)
    assert successor.request_id == "r1"
    assert successor.step == 1
    assert successor.tail_lock is True
    assert successor.method == "next"
    assert successor.args == (9,)
    # Return routing is preserved: the chain answers the original caller.
    assert successor.return_address == "r0"
    assert successor.reply_to == "comp#0"


def test_tail_successor_to_other_releases_lock():
    request = base_request()
    successor = request.tail_successor(B, "next", (), current=A)
    assert successor.tail_lock is False
    assert successor.actor == B


def test_tail_successor_clears_recovery_annotations():
    request = base_request(after_callee="r9", copy_epoch=4)
    successor = request.tail_successor(A, "next", (), current=A)
    assert successor.after_callee is None
    assert successor.copy_epoch == 0


def test_recovery_copy_sets_epoch_and_after_callee():
    request = base_request()
    copy = request.recovery_copy(7, "r5")
    assert copy.copy_epoch == 7
    assert copy.after_callee == "r5"
    assert copy.dedup_key == request.dedup_key  # same logical attempt


def test_spelled_out_copies_equal_dataclasses_replace():
    """The copy methods construct ``Request`` positionally; a field added to
    the class and forgotten there would silently reset to its default."""
    request = Request(
        request_id="r1",
        step=3,
        actor=A,
        method="m",
        args=(1, 2),
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
    names = [field.name for field in fields(Request)]
    # A field left at its default would hide its being dropped.
    for field in fields(Request):
        assert getattr(request, field.name) != field.default, field.name
    copies = {
        "tail_successor": (
            request.tail_successor(B, "next", (9,), current=A),
            replace(
                request,
                step=4,
                actor=B,
                method="next",
                args=(9,),
                tail_lock=False,
                after_callee=None,
                copy_epoch=0,
                attempts=0,
                attempt_log=(),
            ),
        ),
        "recovery_copy": (
            request.recovery_copy(7, "r5", now=2.5),
            replace(
                request,
                copy_epoch=7,
                after_callee="r5",
                attempts=3,
                attempt_log=(0.5, 1.5, 2.5),
            ),
        ),
        "without_after_callee": (
            request.without_after_callee(),
            replace(request, after_callee=None),
        ),
    }
    for method, (built, expected) in copies.items():
        for name in names:
            assert getattr(built, name) == getattr(expected, name), (method, name)
    # Without a timestamp the attempt log is carried over as it is.
    assert request.recovery_copy(7, "r5").attempt_log == (0.5, 1.5)


def test_response_defaults():
    response = Response("r1", value=10)
    assert response.error is None
    assert not response.cancelled


def test_tailcall_sentinel_is_immutable_value():
    sentinel = TailCall(A, "m", (1,))
    assert sentinel.actor == A
    assert sentinel == TailCall(A, "m", (1,))
