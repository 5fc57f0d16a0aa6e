"""Deterministic discrete-event simulation kernel.

Everything in this reproduction runs on simulated time: coroutines are driven
as :class:`SimTask` objects, suspending on :class:`SimFuture` awaitables or
on ``Kernel.sleep``, and grouped into :class:`SimProcess` failure domains that
can be killed abruptly (fail-stop, per the paper's failure rule in Section 3.3).
"""

from repro.sim.kernel import Kernel, SimFuture, SimTask, TaskKilled
from repro.sim.kernel import _sleep  # the runtime's unchecked sleep
from repro.sim.latency import Latency
from repro.sim.process import SimProcess
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Kernel",
    "Latency",
    "SimFuture",
    "SimProcess",
    "SimTask",
    "TaskKilled",
    "TraceEvent",
    "TraceRecorder",
]
