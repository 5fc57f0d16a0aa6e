"""Failure domains for simulated tasks.

A :class:`SimProcess` models an OS process / container / pod: killing it
abandons every task it owns without cleanup, exactly matching the paper's
fail-stop failure rule (Section 3.3) -- in-memory state is lost, while
messages and persistent state (owned by separate service processes) survive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.kernel import SimTask

__all__ = ["SimProcess"]


class SimProcess:
    """A named failure domain grouping simulated tasks."""

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        #: Insertion-ordered, so a kill settles tasks in spawn order (a set
        #: would walk them by ``id()``: allocator order, not seed order).
        self._tasks: dict["SimTask", None] = {}
        self.kill_hooks: list = []

    def adopt(self, task: "SimTask") -> None:
        if not self.alive:
            raise RuntimeError(f"process {self.name!r} is dead")
        self._tasks[task] = None

    def release(self, task: "SimTask") -> None:
        """``task`` completed (or was killed): it is no longer ours to kill."""
        self._tasks.pop(task, None)

    def kill(self) -> None:
        """Abrupt fail-stop: abandon all tasks, run registered kill hooks.

        Kill hooks let substrates observe the failure (e.g. the paired
        runtime process terminating with its application process, Section
        4.1); they must not resurrect tasks.
        """
        if not self.alive:
            return
        self.alive = False
        tasks, self._tasks = self._tasks, {}
        for task in tasks:
            task.kill()
        hooks, self.kill_hooks = self.kill_hooks, []
        for hook in hooks:
            hook()

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"SimProcess({self.name!r}, {state}, tasks={len(self._tasks)})"
