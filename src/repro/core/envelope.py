"""Wire-format envelopes for invocation requests and responses.

An envelope corresponds to a message in the formal semantics (Section 3.2):
a request carries ``(request id, return address, a.m(v))`` and a response
carries ``(request id, return address, v)``. The implementation adds the
fields Section 4 describes: the caller's queue for response routing, the
caller's component for cancellation, the ancestor chain for reentrancy, the
pending-callee annotation written by reconciliation (happen-before), and a
step counter so a tail call (which reuses the caller's request id) supersedes
the request it completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.refs import ActorRef
from repro.mq.records import ReplayedValue
from repro.persist.framing import (
    REQUEST_TYPE_ID,
    RESPONSE_TYPE_ID,
    register_frame_type,
)
from repro.persist.valuetypes import slot_init

__all__ = ["Request", "Response", "TailCall", "envelope_id"]

#: Binary-frame table id for TailCall (ids below 64 are runtime-reserved).
TAILCALL_TYPE_ID = 4


@slot_init
@dataclass(frozen=True, slots=True)
class Request:
    """An invocation request bound for the callee component's queue."""

    request_id: str
    step: int
    actor: ActorRef
    method: str
    args: tuple
    return_address: str | None  # caller's request id; None for tell / root
    reply_to: str | None  # member id whose queue receives the response
    caller_actor: ActorRef | None  # for response re-routing after failures
    caller_member: str | None  # for the cancellation liveness check
    ancestors: tuple[str, ...] = ()  # request-id chain, root first
    tail_lock: bool = False  # tail call to self: retain the actor lock
    after_callee: str | None = None  # happen-before postponement (recovery)
    copy_epoch: int = 0  # generation that copied this request (0 = original)
    expects_reply: bool = True  # False for tell (response self-acks only)
    attempts: int = 0  # recovery copies delivered so far (redelivery count)
    attempt_log: tuple[float, ...] = ()  # timestamps of those copies

    @property
    def dedup_key(self) -> tuple[str, int]:
        """Requests are deduplicated by (id, step): reconciliation may copy
        the same pending request more than once if it is itself interrupted
        ("request messages already copied ... are skipped", Section 4.3)."""
        return (self.request_id, self.step)

    def tail_successor(
        self, actor: ActorRef, method: str, args: tuple, current: ActorRef
    ) -> "Request":
        """The single message that atomically completes this request while
        issuing the next one (Section 2.3): same id, same return address,
        bumped step; the lock is retained iff the callee is the caller."""
        # Positional, here and in ``_annotated``: ``dataclasses.replace``
        # builds and re-validates a kwargs dict over all 16 fields and costs
        # as much again. ``test_core_envelope`` holds both equal to it over
        # ``fields(Request)``, so a field added later cannot be dropped.
        return Request(
            self.request_id,
            self.step + 1,
            actor,
            method,
            args,
            self.return_address,
            self.reply_to,
            self.caller_actor,
            self.caller_member,
            self.ancestors,
            actor == current,  # tail_lock
            None,  # after_callee
            0,  # copy_epoch
            self.expects_reply,
            0,  # attempts
            (),  # attempt_log
        )

    def recovery_copy(
        self, epoch: int, after_callee: str | None, now: float | None = None
    ) -> "Request":
        """A redelivery of this request, stamped into its attempt history
        so redelivery caps and dead-letter evidence can count real copies."""
        log = self.attempt_log if now is None else self.attempt_log + (now,)
        return self._annotated(after_callee, epoch, self.attempts + 1, log)

    def without_after_callee(self) -> "Request":
        """This request freed of its happen-before postponement, for when
        the callee it waits behind has settled and will not respond again."""
        return self._annotated(None, self.copy_epoch, self.attempts, self.attempt_log)

    def _annotated(
        self,
        after_callee: str | None,
        copy_epoch: int,
        attempts: int,
        attempt_log: tuple[float, ...],
    ) -> "Request":
        """The same invocation under other recovery annotations."""
        return Request(
            self.request_id,
            self.step,
            self.actor,
            self.method,
            self.args,
            self.return_address,
            self.reply_to,
            self.caller_actor,
            self.caller_member,
            self.ancestors,
            self.tail_lock,
            after_callee,
            copy_epoch,
            self.expects_reply,
            attempts,
            attempt_log,
        )


@slot_init
@dataclass(frozen=True, slots=True)
class Response:
    """A result (or propagated error / synthetic cancellation) message."""

    request_id: str
    value: Any = None
    error: str | None = None
    cancelled: bool = False


@dataclass(frozen=True, slots=True)
class TailCall:
    """Sentinel returned from an actor method to request a tail call.

    Built by :meth:`ActorContext.tail_call`; the runtime recognizes it and
    atomically records the completion of the current invocation together
    with the request to invoke the target (Section 2.3).
    """

    actor: ActorRef
    method: str
    args: tuple


register_frame_type(Request, REQUEST_TYPE_ID)
register_frame_type(Response, RESPONSE_TYPE_ID)
register_frame_type(TailCall, TAILCALL_TYPE_ID)


def envelope_id(envelope: Any) -> tuple[bool, str, int | None] | None:
    """``(is a response, request id, step)`` of a request or response (the
    step is None for a response), or None for any other value. Takes a
    value-column entry: a replayed one answers from its frame bytes, so
    which calls are settled, and which record of a request is its latest,
    is known without decoding them."""
    if type(envelope) is ReplayedValue:
        return envelope.envelope_key
    if isinstance(envelope, Response):
        return True, envelope.request_id, None
    if isinstance(envelope, Request):
        return False, envelope.request_id, envelope.step
    return None
