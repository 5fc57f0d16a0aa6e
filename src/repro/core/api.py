"""The narrow application facade the serving edge binds to.

The HTTP gateway (:mod:`repro.net.gateway`) must not reach into runtime
internals -- placement tables, routers, component dicts -- both so the HTTP
layer stays a thin protocol adapter and so the runtime can keep refactoring
freely underneath a stable surface. :class:`KarApi` is that surface: the
KAR sidecar operations (actor calls and tells, actor state CRUD, reminder
CRUD) plus the two system views (health, the unified stats tree), expressed
as simulation coroutines over one dedicated client component.

Admission checks live here, not in the gateway: unknown actor types are
rejected before anything enters the runtime, and invocations whose
(actor type, method) circuit breaker is currently open fail fast with
:class:`~repro.core.errors.BreakerOpenError` instead of queueing a request
that the executing component would immediately divert to the dead-letter
parking lot (an external caller cannot await an operator-driven replay).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.errors import BreakerOpenError, UnknownActorTypeError
from repro.core.overload import BREAKER_OPEN
from repro.core.refs import ActorRef
from repro.core.reminders import ReminderAPI
from repro.core.state import state_key

if TYPE_CHECKING:
    from repro.core.app import KarApplication
    from repro.core.runtime import Component

__all__ = ["KarApi"]


class KarApi:
    """One application's external operation surface (the sidecar API).

    All operations run through a dedicated client component (named
    ``gateway`` by default): they share the ordinary invocation, store, and
    reminder paths -- fencing, retry orchestration, and exactly-once
    settlement apply to gateway traffic exactly as to any other client.
    """

    def __init__(self, app: "KarApplication", client_name: str = "gateway"):
        self._app = app
        self._client_name = client_name

    @property
    def app(self) -> "KarApplication":
        return self._app

    @property
    def kernel(self) -> Any:
        return self._app.kernel

    def endpoint(self) -> "Component":
        """The facade's client component (started or revived on demand)."""
        component = self._app.components.get(self._client_name)
        if component is not None and component.alive:
            return component
        if component is not None:
            return self._app.restart_component(self._client_name)
        return self._app.add_component(self._client_name)

    # ------------------------------------------------------------------
    # admission checks
    # ------------------------------------------------------------------
    def actor_ref(self, actor_type: str, actor_id: str) -> ActorRef:
        """Validate the actor type against the registry and build a ref."""
        if actor_type not in self._app.registry:
            raise UnknownActorTypeError(actor_type)
        return ActorRef(actor_type, actor_id)

    def breaker_retry_after(
        self, actor_type: str, method: str
    ) -> float | None:
        """Remaining cooldown of an open (actor type, method) breaker.

        Returns ``None`` when no hosting component's breaker blocks the
        invocation (closed, cooled down enough to admit a probe, or
        breakers disabled). Read-only: the probe admission itself stays
        with the executing component. With no breaker open anywhere it is
        one check, not a scan of the components.
        """
        if not self._app._open_breakers.count:
            return None
        now = self.kernel.now
        worst: float | None = None
        for component in self._app.components.values():
            if not component.alive:
                continue
            if actor_type not in component.actor_types:
                continue
            breaker = component.overload.breakers.get((actor_type, method))
            if breaker is None or breaker.state != BREAKER_OPEN:
                continue
            remaining = breaker.cooldown - (now - breaker.opened_at)
            if remaining > 0 and (worst is None or remaining > worst):
                worst = remaining
        return worst

    def _admit(self, actor_type: str, actor_id: str, method: str) -> ActorRef:
        ref = self.actor_ref(actor_type, actor_id)
        retry_after = self.breaker_retry_after(actor_type, method)
        if retry_after is not None:
            raise BreakerOpenError(actor_type, method, retry_after)
        return ref

    # ------------------------------------------------------------------
    # invocations
    # ------------------------------------------------------------------
    async def call(
        self, actor_type: str, actor_id: str, method: str, args: tuple = ()
    ) -> Any:
        """Synchronous root invocation: awaits the actor method's result."""
        ref = self._admit(actor_type, actor_id, method)
        return await self.endpoint().invoke(None, ref, method, tuple(args), True)

    async def tell(
        self, actor_type: str, actor_id: str, method: str, args: tuple = ()
    ) -> None:
        """Fire-and-forget invocation: returns once durably queued."""
        ref = self._admit(actor_type, actor_id, method)
        await self.endpoint().invoke(None, ref, method, tuple(args), False)

    # ------------------------------------------------------------------
    # actor state CRUD
    # ------------------------------------------------------------------
    async def state_get(
        self, actor_type: str, actor_id: str, key: str
    ) -> tuple[bool, Any]:
        """One persisted field: ``(found, value)``."""
        ref = self.actor_ref(actor_type, actor_id)
        fields = await self.endpoint().store_client.hgetall(state_key(ref))
        return key in fields, fields.get(key)

    async def state_all(self, actor_type: str, actor_id: str) -> dict[str, Any]:
        ref = self.actor_ref(actor_type, actor_id)
        return await self.endpoint().store_client.hgetall(state_key(ref))

    async def state_set(
        self, actor_type: str, actor_id: str, key: str, value: Any
    ) -> None:
        ref = self.actor_ref(actor_type, actor_id)
        await self.endpoint().store_client.hset(state_key(ref), key, value)

    async def state_delete(
        self, actor_type: str, actor_id: str, key: str
    ) -> bool:
        ref = self.actor_ref(actor_type, actor_id)
        return await self.endpoint().store_client.hdel(state_key(ref), key)

    # ------------------------------------------------------------------
    # reminder CRUD
    # ------------------------------------------------------------------
    async def reminder_schedule(
        self,
        actor_type: str,
        actor_id: str,
        reminder_id: str,
        method: str,
        delay: float,
        args: tuple = (),
        period: float | None = None,
    ) -> None:
        ref = self.actor_ref(actor_type, actor_id)
        reminders = ReminderAPI(self.endpoint())
        await reminders.schedule(
            reminder_id, ref, method, delay, *args, period=period
        )

    async def reminder_cancel(self, reminder_id: str) -> bool:
        return await ReminderAPI(self.endpoint()).cancel(reminder_id)

    async def reminder_list(
        self, actor_type: str | None = None, actor_id: str | None = None
    ) -> list[dict[str, Any]]:
        """The reminder table, optionally filtered to one actor."""
        table = await self.endpoint().store_client.hgetall("reminders")
        now = self.kernel.now
        listed = []
        for reminder_id, record in sorted(table.items()):
            rec_type, rec_id = record["actor"]
            if actor_type is not None and rec_type != actor_type:
                continue
            if actor_id is not None and rec_id != actor_id:
                continue
            listed.append(
                {
                    "id": reminder_id,
                    "actor_type": rec_type,
                    "actor_id": rec_id,
                    "method": record["method"],
                    "args": list(record["args"]),
                    "due_in": max(0.0, record["due"] - now),
                    "period": record["period"],
                }
            )
        return listed

    # ------------------------------------------------------------------
    # system views
    # ------------------------------------------------------------------
    def stats(self, family: str | None = None) -> dict[str, Any]:
        """The unified evidence tree (or one family of it)."""
        return self._app.stats(family)

    def health(self) -> dict[str, Any]:
        """Liveness/readiness: the group must have an unpaused generation."""
        coordinator = self._app.coordinator
        ready = coordinator.generation > 0 and not coordinator.paused
        return {
            "status": "ok" if ready else "starting",
            "ready": ready,
            "app": self._app.name,
            "boot": self._app.boot,
            "generation": coordinator.generation,
            "components": self._app.live_component_names(),
            "sim_now": self.kernel.now,
        }

    def actor_types(self) -> tuple[str, ...]:
        return tuple(self._app.registry.type_names)
