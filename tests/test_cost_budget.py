"""Python calls per operation, by package, pinned as ceilings.

``tests/test_call_path_budget.py`` prices an echo call in hops; this gate
prices each of the four benchmark paths in Python calls, which a timer on a
shared machine cannot resolve and a profiler counts exactly.
``tests/cost_probe.py`` runs the four drivers (an in-process echo call, the
durable ledger write, an echo call over HTTP with its ``KernelBridge.submit``,
and one crash-and-``reopen()`` cycle) and counts the ``sys.setprofile``
``call`` events -- functions called plus coroutines and generators resumed --
whose code lives under ``src/repro``, per package. Other Python and C calls
are reported by ``PYTHONPATH=src python tests/cost_probe.py`` as information
only.

What is not counted: methods a ``dataclass`` generates (``__init__``,
``__eq__``, ``__hash__``, ``__repr__``) and the ``__init__`` that
``repro.persist.valuetypes.slot_init`` generates run as code compiled from a
string, whose file is ``<string>``, not a file under ``src/repro``.

The counts repeat exactly on one interpreter. Across the CI versions they
differ a little: 3.12 runs list and dict comprehensions inline (PEP 709), so
they are no frame of their own there, and the recovery cycle, which settles
in 0.5 s polls, runs a few background ticks more or fewer on 3.10. The echo
counts agree to within 0.1 a call. Each pin is the highest of 3.10, 3.11 and
3.12, rounded up in the second decimal.

The pins are ceilings. A change that lowers a count may lower its pin; a
change that raises one re-captures it and says why in CHANGES.md, as for the
golden schedule.
"""

from __future__ import annotations

import pytest

from cost_probe import PACKAGES, probe

#: Python calls per operation under ``src/repro``, by package.
CEILINGS: dict[str, dict[str, float]] = {
    "echo": {"sim": 81.56, "mq": 41.18, "core": 64.18},
    "ledger": {
        "sim": 98.04,
        "mq": 20.69,
        "core": 111.67,
        "kvstore": 11.0,
        "persist": 52.0,
    },
    "gateway": {"sim": 95.04, "mq": 41.2, "core": 77.32, "net": 43.0},
    "recover": {
        "sim": 2079.0,
        "mq": 643.0,
        "core": 2161.0,
        "kvstore": 606.0,
        "persist": 1354.0,
    },
}


@pytest.mark.parametrize("driver", list(CEILINGS))
def test_python_calls_per_operation_stay_under_their_ceilings(driver):
    cost = probe(driver)
    ceilings = CEILINGS[driver]
    assert set(cost.packages) <= set(PACKAGES)
    over = {
        package: (round(count, 2), ceilings.get(package, 0.0))
        for package, count in cost.packages.items()
        if count > ceilings.get(package, 0.0) + 1e-9
    }
    assert not over, f"{driver}: (calls per op, ceiling) by package: {over}"


def test_counts_repeat_exactly():
    assert probe("echo") == probe("echo")
