"""Reproduction of *Reliable Actors with Retry Orchestration* (KAR, PLDI 2023).

The package is organised bottom-up:

- :mod:`repro.sim` -- deterministic discrete-event simulation kernel.
- :mod:`repro.mq` -- simulated Kafka (queues, consumer groups, fencing).
- :mod:`repro.kvstore` -- simulated Redis (KV + CAS + fencing).
- :mod:`repro.net` -- the serving edge (asyncio HTTP gateway exposing the
  sidecar API) and the direct, non-reliable transport baseline.
- :mod:`repro.core` -- the KAR runtime: actors, tail calls, retry
  orchestration, reconciliation.
- :mod:`repro.semantics` -- the paper's process calculus, executable, with a
  bounded model checker for Theorems 3.1-3.4.
- :mod:`repro.reefer` -- the Container Shipping enterprise application.
- :mod:`repro.bench` -- harnesses regenerating every table and figure.

The names exported here are the supported public surface: build an
application (:class:`KarApplication`, on any number of worker event loops;
:class:`KarConfig`), write actors (:class:`Actor`, :class:`ActorContext`,
:class:`ActorRef`, :func:`actor_proxy`, :class:`TailCall`), and serve them
over HTTP (:class:`KarGateway`, or programmatically via :class:`KarApi`).
"""

__version__ = "1.1.0"

from repro.core import (  # noqa: F401
    Actor,
    ActorContext,
    ActorRef,
    KarApi,
    KarApplication,
    KarConfig,
    TailCall,
    actor_proxy,
)
from repro.net import KarGateway  # noqa: F401
from repro.sim import Kernel, SimProcess  # noqa: F401

__all__ = [
    "Actor",
    "ActorContext",
    "ActorRef",
    "KarApi",
    "KarApplication",
    "KarConfig",
    "KarGateway",
    "Kernel",
    "SimProcess",
    "TailCall",
    "__version__",
    "actor_proxy",
]
