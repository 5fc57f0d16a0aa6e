"""The golden workflow and a worker removal crashed at enumerated points
(``tests/crash_sweep.py``).

Tier-1 runs every 7th crash point of the golden workflow, each under one of
the eight (backend, kill) pairs in turn, every 13th point of the removal's
drain and aftermath, and the counterexamples the full sweeps found, named by
``(seed, k, kill)``. ``python benchmarks/bench_crash_sweep.py`` runs all
1,063 golden points under every pair and every removal point.
"""

from __future__ import annotations

import itertools

import pytest

from crash_sweep import (
    EVENTS,
    KILLS,
    MODES,
    REMOVAL_EVENTS,
    REMOVAL_POINTS,
    boot,
    crash_point,
    removal_point,
    removal_sweep,
    removal_violations,
    spawn_audits,
    start_removal,
    sweep,
    violations,
)
from oracle import check_guarantee
from repro.core import actor_proxy
from test_placement_ctl import make_cluster, totals_of

PAIRS = list(itertools.product(MODES, KILLS))
STRIDE = 7


def test_the_audits_take_exactly_the_swept_number_of_events(tmp_path):
    app = boot("memory", str(tmp_path), {})
    audits = spawn_audits(app)
    with pytest.raises(RuntimeError, match="exceeded"):
        app.kernel.run(max_events=EVENTS - 1)
    assert not all(task.done() for task in audits)
    with pytest.raises(RuntimeError, match="exceeded"):
        app.kernel.run(max_events=1)
    assert all(task.done() for task in audits)
    app.shutdown()


@pytest.mark.parametrize("mode, kill", PAIRS)
def test_every_seventh_crash_point_keeps_the_guarantee(mode, kill, tmp_path):
    """Point ``1 + 7 i`` runs under pair ``i mod 8``."""
    offset = STRIDE * PAIRS.index((mode, kill))
    points = range(1 + offset, EVENTS, STRIDE * len(PAIRS))
    assert sweep(mode, str(tmp_path), kill, {}, points) == {}


def starts_on(boots, actor, after_kind):
    """``(request, step)`` of every start on ``actor`` after the first
    ``after_kind`` event."""
    starts, seen = [], False
    for app in boots:
        for event in app.trace:
            seen = seen or event.kind == after_kind
            if seen and event.kind == "invoke.start" and event["actor"] == actor:
                starts.append((event["request"], event["step"]))
    return starts


@pytest.mark.parametrize("mode", MODES)
def test_seed1503_k231_restart_w1_runs_the_stranded_commit_first(mode, tmp_path):
    """Killed after ``r000007``'s ``add`` on ``Tally[t0]`` tail-called its
    ``commit`` and restarted at once, ``w1#1`` used to serve ``r000014`` and
    ``r000013`` on that actor while the commit sat in ``w1#0``'s queue."""
    boots = crash_point(mode, str(tmp_path), 231, "restart-at-once", {})
    assert starts_on(boots, "Tally[t0]", "component.fail")[0] == ("r000007", 2)
    assert violations(boots) == []
    boots[-1].shutdown()


@pytest.mark.parametrize("mode", MODES)
def test_seed1503_k246_restart_w1_loses_no_increment(mode, tmp_path):
    """The same kill later: the late ``commit`` wrote the stale 1 its
    ``add`` computed over two newer increments, and ``Tally[t0]`` read 4
    after six commits."""
    boots = crash_point(mode, str(tmp_path), 246, "restart-at-once", {})
    app = boots[-1]
    commits = {
        (event["request"], event["step"])
        for event in app.trace.where("invoke.end", actor="Tally[t0]", method="commit")
    }
    assert len(commits) == 6
    assert app.run_call(actor_proxy("Tally", "t0"), "report") == 6
    assert violations(boots) == []
    app.shutdown()


@pytest.mark.xfail(
    strict=True,
    reason="with send_linger > 0 a whole-application kill breaks the tail "
    "lock (ROADMAP item 14)",
)
@pytest.mark.parametrize(
    "mode, kill", [("memory", "all-restart"), ("sqlite", "reopen")]
)
def test_seed1503_k259_send_linger_keeps_the_tail_lock(mode, kill, tmp_path):
    """``send_linger=0.002``, every component killed after 259 events:
    ``r000009`` step 1 on ``Tally[t1]`` tail-called itself at 0.520, and
    eighteen other requests started there before step 2 ended. Point 100
    of the same sweep is clean."""
    boots = crash_point(mode, str(tmp_path), 259, kill, {"send_linger": 0.002})
    try:
        check_guarantee(*boots)
    finally:
        boots[-1].shutdown()


def test_the_removal_takes_exactly_the_swept_number_of_events():
    kernel, app = make_cluster(seed=3, workers=3, components=6)
    _victim, _ids, leave, _bumps = start_removal(app)
    with pytest.raises(RuntimeError, match="exceeded"):
        kernel.run(max_events=REMOVAL_EVENTS - 1)
    assert not leave.done()
    with pytest.raises(RuntimeError, match="exceeded"):
        kernel.run(max_events=1)
    assert leave.done()
    kernel.run(until=kernel.now + 1.0)  # start what the last event spawned
    app.shutdown()


def test_seed3_k0_removal_whose_survivors_die_waits_for_the_next_worker():
    """Every other worker killed before the removal's first event: the
    removal used to crash with "no live workers to host components". Its
    components now stay down on the leaving worker until ``add_worker``,
    which re-hosts all six there."""
    app, ids = removal_point(0)
    assert app.kernel.crashes == []
    (joined,) = [worker for worker in app.control.workers.values() if worker.alive]
    assert joined.hosted == {
        name for name, types in app.component_types.items() if types
    }
    assert removal_violations(app, ids) == []
    app.shutdown()


def test_seed3_k609_a_worker_added_as_the_sweep_is_due_is_not_failed():
    """Past the removal's end, ``add_worker()`` ran at the instant a
    heartbeat sweep was due. The sweep ran before the new worker's loop had
    beaten once and read it as silent since time zero: it was failed with
    nothing hosted, the components were never re-hosted, and the bumps
    timed out. A worker now writes its first beat when it is built."""
    app, ids = removal_point(609)
    control = app.control
    assert sorted(control.workers_failed) == ["w1", "w2"]  # the two killed
    (joined,) = [worker for worker in control.workers.values() if worker.alive]
    assert joined.worker_id not in control.workers_failed
    assert joined.hosted == {
        name for name, types in app.component_types.items() if types
    }
    assert set(totals_of(app, ids).values()) == {5}
    check_guarantee(app)
    app.shutdown()


def test_every_thirteenth_removal_point_keeps_the_guarantee():
    assert removal_sweep(range(13, REMOVAL_POINTS, 13)) == {}
