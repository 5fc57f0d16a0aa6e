"""Reminders: time-delayed, possibly periodic variants of ``actor.tell``.

Reminders are persisted in the store and delivered by the current group
leader's runtime. Delivery is at-least-once across leader failovers (a
leader that crashes between producing the tell and updating the reminder
record will cause one duplicate); the underlying tells are durable once
produced. The paper specifies reminders as tell variants (Section 2) without
prescribing their fault-tolerance internals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.refs import ActorRef

if TYPE_CHECKING:
    from repro.core.runtime import Component

__all__ = ["REMINDERS_KEY", "ReminderAPI", "deliver_due_reminders"]

REMINDERS_KEY = "reminders"


class ReminderAPI:
    """Schedule and cancel reminders through a component's store client.

    Bound to the calling component so a fenced (failed) component can no
    longer mutate the reminder table.
    """

    def __init__(self, component: "Component"):
        self._component = component

    async def schedule(
        self,
        reminder_id: str,
        ref: ActorRef,
        method: str,
        delay: float,
        *args: Any,
        period: float | None = None,
    ) -> None:
        """Fire ``ref.method(*args)`` after ``delay`` seconds; with
        ``period`` the reminder repeats until cancelled."""
        record = {
            "actor": (ref.type, ref.id),
            "method": method,
            "args": list(args),
            "due": self._component.kernel.now + delay,
            "period": period,
        }
        await self._component.store_client.hset(
            REMINDERS_KEY, reminder_id, record
        )
        self._component.app.reminders_in_use = True

    async def cancel(self, reminder_id: str) -> bool:
        return await self._component.store_client.hdel(
            REMINDERS_KEY, reminder_id
        )


async def deliver_due_reminders(component: "Component") -> int:
    """One leader tick: fire every due reminder as a tell, then update it.

    Tell first, update second: a crash in between re-fires on the next
    leader (at-least-once), never silently drops.
    """
    table = await component.store_client.hgetall(REMINDERS_KEY)
    fired = 0
    now = component.kernel.now
    for reminder_id, record in sorted(table.items()):
        if record["due"] > now:
            continue
        ref = ActorRef(*record["actor"])
        await component.invoke(
            caller=None,
            ref=ref,
            method=record["method"],
            args=tuple(record["args"]),
            expects_reply=False,
        )
        component.trace.emit(
            "reminder.fired", reminder=reminder_id, actor=str(ref)
        )
        fired += 1
        if record["period"] is not None:
            updated = dict(record)
            updated["due"] = now + record["period"]
            await component.store_client.hset(
                REMINDERS_KEY, reminder_id, updated
            )
        else:
            await component.store_client.hdel(REMINDERS_KEY, reminder_id)
    return fired
