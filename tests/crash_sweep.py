"""Crash-point enumeration over the golden workflow.

The workflow, its actors, config and seed are those of
``tests/test_golden_schedule.py``: six audits, each a nested call into a
``Flow`` -> ``Tally`` tail-call chain and a tell, over three components.
From their spawn to the end of the last one they take :data:`EVENTS` kernel
events, so a crash point is a number ``k`` in ``1 .. EVENTS - 1``:
``kernel.run(max_events=k)`` stops after exactly ``k`` events. There one of
:data:`KILLS` strikes, the application settles, and the run must pass the
oracle (``tests/oracle.py``) and one workload check: no ``Tally`` lost an
increment (see :func:`violations`).

The second sweep is a worker removal's drain (:func:`removal_point`): three
workers host six components, the ones on the leaving worker take load, and
at event ``k`` of the removal every other worker is killed. A worker is
then added, and the run must pass the oracle and leave every counter at
exactly its number of bumps (:func:`removal_violations`). Its points run
past the removal's end into the aftermath (:data:`REMOVAL_POINTS`), where
the surviving workers' heartbeats and the control plane's sweeps go on.

The golden sweep runs under any switch a caller names: :func:`boot`,
:func:`crash_point` and :func:`sweep` take ``overrides``, a dict of
``KarConfig`` fields over the golden config (``{}`` for the golden one).
:func:`crash_point` and :func:`sweep` also take ``"module.NAME"`` keys: a
constant of that ``repro.core`` module, set for the point and restored
after it.
:data:`SWITCHES` names every non-default setting that claims the guarantee;
:data:`NOT_SWEPT` says why each other ``KarConfig`` field is left out.
:data:`BASELINE`, the at-least-once baseline, is the negative control: a
sweep that cannot flag it checks nothing.

``python benchmarks/bench_crash_sweep.py`` sweeps every point of both;
tier-1 runs the named counterexamples and strided slices
(``tests/test_crash_sweep.py``).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Iterator

from repro.core import KarApplication, KarConfig, actor_proxy
from repro.persist import PersistenceConfig
from repro.sim import Kernel, Latency, SimTask

from oracle import guarantee_violations
from test_golden_schedule import Auditor, Flow, Tally
from test_placement_ctl import actor_ids_on, make_cluster, pump, totals_of

__all__ = [
    "BASELINE",
    "EVENTS",
    "KILLS",
    "MODES",
    "NOT_SWEPT",
    "REMOVAL_EVENTS",
    "REMOVAL_POINTS",
    "SWITCHES",
    "boot",
    "constants",
    "crash_point",
    "removal_point",
    "removal_sweep",
    "removal_violations",
    "spawn_audits",
    "start_removal",
    "sweep",
    "violations",
]

SEED = 1503
AUDITS = 6
#: Kernel events the six audits take, from their spawn to the last one's end.
EVENTS = 1064
COMPONENTS = ("w1", "w2", "w3")
#: One component killed and restarted at once; the same, restarted only
#: after the audits finished; all three killed and restarted at once; every
#: process killed by ``shutdown()`` and the application rebuilt by
#: ``reopen()``.
KILLS = ("restart-at-once", "restart-after", "all-restart", "reopen")
MODES = ("memory", "sqlite")

#: Every non-default setting that claims the guarantee, by name, as the
#: ``overrides`` that select it.
SWITCHES = {
    "cancellation=False": {"cancellation": False},
    "placement_cache=False": {"placement_cache": False},
    "idle_passivation_timeout=0.05": {
        "idle_passivation_timeout": 0.05,
        "maintenance_interval": 0.05,
    },
    "overload_guard=False": {"overload_guard": False},
    "mailbox_capacity=2": {"overload.MAILBOX_CAPACITY": 2},
    "breaker_threshold=1": {
        "breaker_threshold": 1,
        "overload.BREAKER_COOLDOWN": 0.05,
    },
    "send_linger=0.002": {"router.SEND_LINGER": 0.002},
}

_LATENCY = "a latency or cost: it moves the schedule, not a mechanism"

#: Each ``KarConfig`` field no switch sets, and why it is not swept.
NOT_SWEPT = {
    "orchestrate_retries": "False is the at-least-once baseline (BASELINE)",
    "redelivery_limit": "parks a poison pill unsettled until redelivered by hand",
    "persistence": "every sweep runs on both backends",
    "dedup_retention_slack": "a horizon far beyond a swept run's length",
    "reminder_tick": "the golden workflow sets no reminder",
    "worker_loop_cost": "the golden workflow runs no workers; the removal "
    "sweep does",
    "drain_timeout": "the golden workflow moves no component",
    **dict.fromkeys(
        (
            "broker",
            "store_latency",
            "sidecar_latency",
            "invoke_overhead",
            "reconcile_base",
            "reconcile_per_message",
            "reconcile_per_copy",
        ),
        _LATENCY,
    ),
}

#: The negative control: the at-least-once baseline of Figure 2b.
BASELINE = {"orchestrate_retries": False}


def boot(mode: str, root: str, overrides: dict) -> KarApplication:
    """The golden application under ``overrides``, settled and idle."""
    persistence = (
        PersistenceConfig.sqlite(root) if mode == "sqlite" else PersistenceConfig()
    )
    config = KarConfig.fast_test().with_overrides(
        persistence=persistence,
        sidecar_latency=Latency.around(0.0002, 0.0001),
        store_latency=Latency.around(0.0005, 0.0002),
        invoke_overhead=Latency.around(0.0002, 0.0001),
        **overrides,
    )
    app = KarApplication.fresh(Kernel(seed=SEED), config, name="golden")
    for cls in (Flow, Tally, Auditor):
        app.register_actor(cls)
    add_components(app)
    return app


def add_components(app: KarApplication) -> None:
    types = ("Flow", "Tally", "Auditor")
    for name in COMPONENTS:
        app.add_component(name, types)
    app.client()
    app.settle()


def spawn_audits(app: KarApplication) -> list[SimTask]:
    kernel, client = app.kernel, app.client()
    return [
        kernel.spawn(
            client.invoke(None, actor_proxy("Auditor", f"a{wid}"), "audit", (wid,)),
            client.process,
            name=f"audit{wid}",
        )
        for wid in range(AUDITS)
    ]


@contextmanager
def constants(overrides: dict) -> Iterator[dict]:
    """Set each ``"module.NAME"`` entry of ``overrides`` on that
    ``repro.core`` module, yield the rest (the ``KarConfig`` fields), and
    restore every constant on the way out, also on an error."""
    saved = []
    try:
        for key, value in overrides.items():
            if "." in key:
                module_name, name = key.split(".")
                module = importlib.import_module(f"repro.core.{module_name}")
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, value)
        yield {key: value for key, value in overrides.items() if "." not in key}
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def crash_point(
    mode: str, root: str, k: int, kill: str, overrides: dict
) -> list[KarApplication]:
    """Run the audits for ``k`` events, strike with ``kill``, settle; return
    every boot, the running one last."""
    with constants(overrides) as fields:
        app = boot(mode, root, fields)
        kernel = app.kernel
        audits = spawn_audits(app)
        try:
            kernel.run(max_events=k)
        except RuntimeError:
            pass  # the runaway guard is the stopwatch
        if kill == "reopen":
            boots = [app, app.reopen()]
            add_components(boots[-1])
            drain(boots[-1])
        else:
            victims = ("w1",) if kill.startswith("restart") else COMPONENTS
            for name in victims:
                app.kill_component(name)
            if kill != "restart-after":
                for name in victims:
                    app.restart_component(name)
            kernel.run_until_complete(kernel.gather(audits), timeout=600.0)
            if kill == "restart-after":
                app.restart_component("w1")
            boots = [app]
        kernel.run(until=kernel.now + 5.0)
        return boots


def drain(app: KarApplication, max_wait: float = 180.0) -> None:
    deadline = app.kernel.now + max_wait
    while app.stats("calls")["unsettled"] and app.kernel.now < deadline:
        app.kernel.run(until=app.kernel.now + 1.0)


def violations(boots: list[KarApplication]) -> list[str]:
    """The oracle's verdict, plus lost tally increments.

    A ``commit`` writes the total its ``add`` read plus one, so a tally
    holds at least one increment per commit that ended, and at most one per
    commit that started: a commit cut off after its write and then elided
    (Section 4.4) leaves its increment without an end.
    """
    app = boots[-1]
    found = guarantee_violations(*boots)
    for index in range(3):
        actor = f"Tally[t{index}]"
        total = app.run_call(actor_proxy("Tally", f"t{index}"), "report")
        started, ended = set(), set()
        for each in boots:
            for event in each.trace.where("invoke.start", actor=actor):
                if event["method"] == "commit":
                    started.add((event["request"], event["step"]))
            for event in each.trace.where("invoke.end", actor=actor):
                if event["method"] == "commit" and event["outcome"] != "cancelled":
                    ended.add((event["request"], event["step"]))
        if not len(ended) <= total <= len(started):
            found.append(
                f"{actor} holds {total} after {len(ended)} commits ended "
                f"and {len(started)} started"
            )
    return found


def sweep(
    mode: str, root: str, kill: str, overrides: dict, points: range = range(1, EVENTS)
) -> dict[int, list[str]]:
    """The violations at every crash point in ``points`` that has some."""
    failures = {}
    for k in points:
        boots = crash_point(mode, root, k, kill, overrides)
        found = violations(boots)
        boots[-1].shutdown()
        if found:
            failures[k] = found
    return failures


#: Kernel events the removal takes, from its spawn to its end.
REMOVAL_EVENTS = 594
#: Removal points swept: the removal's events and 166 of its aftermath.
REMOVAL_POINTS = REMOVAL_EVENTS + 166
#: Sequential bumps per counter in the removal-drain scenario.
REMOVAL_BUMPS = 5


def start_removal(
    app: KarApplication,
) -> tuple[str, list[str], SimTask, list[SimTask]]:
    """Bump two counters per component of ``comp0``'s worker for 0.05 s,
    so the drains have work to finish, then spawn that worker's removal.
    Returns the leaving worker's id, the counters' actor ids, the removal
    and the bump drivers."""
    kernel, control = app.kernel, app.control
    victim = control.worker_of("comp0")
    ids = [
        actor_id
        for name in sorted(control.workers[victim].hosted)
        for actor_id in actor_ids_on(app, name, 2)
    ]
    bumps = pump(kernel, app.client(), ids, REMOVAL_BUMPS)
    kernel.run(until=kernel.now + 0.05)
    leave = kernel.spawn(control.remove_worker_async(victim), name="leave")
    return victim, ids, leave, bumps


def removal_point(k: int) -> tuple[KarApplication, list[str]]:
    """Run ``k`` events of the removal, kill every worker but the leaving
    one, let the removal end, add a worker and settle. Returns the
    application and the counters' actor ids."""
    kernel, app = make_cluster(seed=3, workers=3, components=6)
    control = app.control
    victim, ids, leave, bumps = start_removal(app)
    if k:
        try:
            kernel.run(max_events=k)
        except RuntimeError:
            pass  # the runaway guard is the stopwatch
    for worker_id, worker in list(control.workers.items()):
        if worker_id != victim and worker.alive:
            control.kill_worker(worker_id)
    deadline = kernel.now + 60.0
    while not leave.done() and kernel.now < deadline:
        kernel.run(until=kernel.now + 0.5)
    control.add_worker()
    kernel.run_until_complete(kernel.gather(bumps), timeout=600.0)
    kernel.run(until=kernel.now + 5.0)
    return app, ids


def removal_violations(app: KarApplication, ids: list[str]) -> list[str]:
    """The oracle's verdict, plus any counter not at exactly its bumps."""
    found = guarantee_violations(app)
    for actor_id, total in sorted(totals_of(app, ids).items()):
        if total != REMOVAL_BUMPS:
            found.append(
                f"Counter[{actor_id}] holds {total} after {REMOVAL_BUMPS} bumps"
            )
    return found


def removal_sweep(points: range = range(REMOVAL_POINTS)) -> dict[int, list[str]]:
    """The violations at every removal point in ``points`` that has some; a
    point whose run raises (a call that never settles times out) fails with
    the error as its one violation."""
    failures = {}
    for k in points:
        try:
            app, ids = removal_point(k)
            found = removal_violations(app, ids)
        except Exception as error:  # noqa: BLE001 - a failing point
            failures[k] = [f"raised: {error!r}"]
            continue
        app.shutdown()
        if found:
            failures[k] = found
    return failures
