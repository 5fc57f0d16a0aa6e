"""Actor base class and type registry.

Actors are plain Python classes whose public coroutine methods take the
invocation context as their first argument:

.. code-block:: python

    class Latch(Actor):
        async def activate(self, ctx):
            self.v = 0

        async def set(self, ctx, v):
            self.v = v

        async def get(self, ctx):
            return self.v

``activate`` plays the role of a constructor and is implicitly invoked at
(re)instantiation time (Section 2); ``deactivate`` is optional and is
invoked when the runtime *passivates* an instance that has been idle past
``KarConfig.idle_passivation_timeout`` -- flush any in-memory state there,
because the instance object is discarded afterwards and the next request
re-activates a fresh one from persisted state. In-memory attributes are
likewise lost on failure; persist what matters via ``ctx.state``.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING

from repro.core.errors import KarError
from repro.core.refs import ActorRef

if TYPE_CHECKING:
    from repro.core.context import ActorContext

__all__ = ["Actor", "ActorRegistry"]

_RESERVED = {"activate", "deactivate"}


class Actor:
    """Base class for KAR actors. Subclasses define async methods."""

    #: Set by the runtime at instantiation.
    ref: ActorRef

    async def activate(self, ctx: "ActorContext") -> None:
        """Called on construction and on reconstruction after a failure;
        restore persisted state here (Section 2.1)."""

    async def deactivate(self, ctx: "ActorContext") -> None:
        """Called when the runtime passivates the instance (idle past the
        configured timeout). Flush volatile state via ``ctx.state`` here;
        the instance and its mailbox are evicted once this returns, and
        the next request transparently re-activates the actor."""


class ActorRegistry:
    """Maps actor type names to classes and validates method lookups."""

    def __init__(self):
        self._types: dict[str, type[Actor]] = {}
        #: ``(class, method name)`` pairs :meth:`method` has validated.
        self._invocable: set[tuple[type[Actor], str]] = set()

    def register(self, actor_class: type[Actor], name: str | None = None) -> str:
        type_name = name or actor_class.__name__
        if type_name in self._types and self._types[type_name] is not actor_class:
            raise KarError(f"actor type {type_name!r} registered twice")
        self._types[type_name] = actor_class
        return type_name

    def resolve(self, type_name: str) -> type[Actor]:
        try:
            return self._types[type_name]
        except KeyError:
            raise KarError(f"unknown actor type {type_name!r}") from None

    def method(self, instance: Actor, method_name: str):
        key = (type(instance), method_name)
        if key not in self._invocable:
            if method_name.startswith("_") or method_name in _RESERVED:
                raise KarError(f"method {method_name!r} is not invocable")
            if not inspect.iscoroutinefunction(getattr(instance, method_name, None)):
                raise KarError(
                    f"{type(instance).__name__} has no invocable method {method_name!r}"
                )
            self._invocable.add(key)
        return getattr(instance, method_name)

    @property
    def type_names(self) -> list[str]:
        return sorted(self._types)

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types
