"""The golden workflow crashed at enumerated points (``tests/crash_sweep.py``).

Tier-1 runs every 7th crash point, each under one of the eight
(backend, kill) pairs in turn, and the counterexamples the full sweep found,
named by ``(seed 1503, k, kill)``. ``python benchmarks/bench_crash_sweep.py``
runs all 1,063 points under every pair.
"""

from __future__ import annotations

import itertools

import pytest

from crash_sweep import (
    EVENTS,
    KILLS,
    MODES,
    boot,
    crash_point,
    spawn_audits,
    sweep,
    violations,
)
from repro.core import actor_proxy

PAIRS = list(itertools.product(MODES, KILLS))
STRIDE = 7


def test_the_audits_take_exactly_the_swept_number_of_events(tmp_path):
    app = boot("memory", str(tmp_path))
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
    assert sweep(mode, str(tmp_path), kill, points) == {}


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
    boots = crash_point(mode, str(tmp_path), 231, "restart-at-once")
    assert starts_on(boots, "Tally[t0]", "component.fail")[0] == ("r000007", 2)
    assert violations(boots) == []
    boots[-1].shutdown()


@pytest.mark.parametrize("mode", MODES)
def test_seed1503_k246_restart_w1_loses_no_increment(mode, tmp_path):
    """The same kill later: the late ``commit`` wrote the stale 1 its
    ``add`` computed over two newer increments, and ``Tally[t0]`` read 4
    after six commits."""
    boots = crash_point(mode, str(tmp_path), 246, "restart-at-once")
    app = boots[-1]
    commits = {
        (event["request"], event["step"])
        for event in app.trace.where("invoke.end", actor="Tally[t0]", method="commit")
    }
    assert len(commits) == 6
    assert app.run_call(actor_proxy("Tally", "t0"), "report") == 6
    assert violations(boots) == []
    app.shutdown()
