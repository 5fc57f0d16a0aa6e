"""Reminders: delayed and periodic tells, persistence across failures."""

import pytest

from repro.core import Actor, KarConfig, actor_proxy
from repro.persist import PersistenceConfig

from helpers import make_app, run


class Clocked(Actor):
    fired = []

    async def tick(self, ctx, tag):
        Clocked.fired.append((tag, ctx.now))


def reminder_app(seed=0, config=None):
    Clocked.fired = []
    kernel, app = make_app(seed, config)
    app.register_actor(Clocked)
    populate(app)
    return kernel, app


def populate(app):
    app.add_component("w1", ("Clocked",))
    app.add_component("w2", ("Clocked",))
    app.client()
    app.settle()


def schedule(kernel, app, reminder_id, ref, method, delay, *args, period=None):
    from repro.core.reminders import ReminderAPI

    component = app.client()
    api = ReminderAPI(component)
    run(
        kernel,
        api.schedule(reminder_id, ref, method, delay, *args, period=period),
        process=component.process,
    )


def test_one_shot_reminder_fires_once():
    kernel, app = reminder_app(seed=1)
    ref = actor_proxy("Clocked", "c")
    schedule(kernel, app, "r1", ref, "tick", 2.0, "hello")
    kernel.run(until=kernel.now + 10.0)
    assert len(Clocked.fired) == 1
    tag, when = Clocked.fired[0]
    assert tag == "hello"
    assert when >= 2.0


def test_periodic_reminder_repeats():
    kernel, app = reminder_app(seed=2)
    ref = actor_proxy("Clocked", "c")
    schedule(kernel, app, "r1", ref, "tick", 1.0, "beat", period=2.0)
    kernel.run(until=kernel.now + 9.0)
    assert len(Clocked.fired) >= 3


def test_cancel_stops_reminder():
    kernel, app = reminder_app(seed=3)
    ref = actor_proxy("Clocked", "c")
    schedule(kernel, app, "r1", ref, "tick", 1.0, "beat", period=1.0)
    kernel.run(until=kernel.now + 3.5)
    fired_before = len(Clocked.fired)
    assert fired_before >= 1

    from repro.core.reminders import ReminderAPI

    component = app.client()
    run(kernel, ReminderAPI(component).cancel("r1"), process=component.process)
    kernel.run(until=kernel.now + 5.0)
    assert len(Clocked.fired) <= fired_before + 1  # at most one in-flight


def test_reminder_survives_leader_failure():
    """Reminders persist in the store; a new leader keeps delivering."""
    kernel, app = reminder_app(seed=4)
    ref = actor_proxy("Clocked", "c")
    schedule(kernel, app, "r1", ref, "tick", 6.0, "late")
    leader = app.coordinator.leader
    leader_name = leader.rsplit("#", 1)[0]
    if leader_name != "client":
        app.kill_component(leader_name)
    kernel.run(until=kernel.now + 30.0)
    tags = [tag for tag, _ in Clocked.fired]
    assert "late" in tags


@pytest.mark.parametrize("mode", ["memory", "sqlite"])
def test_persisted_reminder_fires_once_after_a_cold_restart(mode, tmp_path):
    """Whether reminders are in use is read from the store, not remembered
    by the process that scheduled one."""
    config = KarConfig.fast_test()
    if mode == "sqlite":
        config = config.with_overrides(
            persistence=PersistenceConfig.sqlite(str(tmp_path))
        )
    kernel, app = reminder_app(seed=5, config=config)
    schedule(kernel, app, "r1", actor_proxy("Clocked", "c"), "tick", 3.0, "late")
    app = app.reopen()
    populate(app)
    kernel.run(until=kernel.now + 20.0)
    assert [tag for tag, _ in Clocked.fired] == ["late"]
    assert app.store.backend.hgetall("reminders") == {}
    kernel.check_no_crashes()
    app.shutdown()
