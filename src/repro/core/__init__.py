"""The KAR runtime: actors, tail calls, retry orchestration, reconciliation.

Public surface:

- :class:`KarApplication` -- the one application type: wire up
  infrastructure, components and (``workers=N``) worker event loops;
- :class:`Actor` -- base class for application actors;
- :class:`ActorRef` / :func:`actor_proxy` -- actor references;
- :class:`ActorContext` -- per-invocation API (call / tell / tail_call /
  state / reminders), handed to every actor method;
- :class:`KarConfig` -- timing parameters and feature flags;
- :class:`TailCall` -- the value an actor method returns to chain work;
- errors: :class:`ActorMethodError`, :class:`InvocationCancelled`,
  :class:`NoPlacementError`.
"""

from repro.core.actor import Actor, ActorRegistry
from repro.core.api import KarApi
from repro.core.app import KarApplication
from repro.core.cluster import ControlPlane, DecayingCounter, KarWorker, WorkerLoop
from repro.core.config import KarConfig
from repro.core.context import ActorContext
from repro.core.dispatcher import ActorMailbox
from repro.core.envelope import Request, Response, TailCall
from repro.core.errors import (
    ActorMethodError,
    BreakerOpenError,
    InvocationCancelled,
    KarError,
    NoPlacementError,
    UnknownActorTypeError,
)
from repro.core.overload import (
    BackoffPolicy,
    CircuitBreaker,
    DeadLetter,
    OverloadGuard,
    RetryBudget,
)
from repro.core.placement import (
    PlacementService,
    parent_partition,
    sub_partition_names,
)
from repro.core.placement_ctl import PlacementController
from repro.core.refs import ActorRef, actor_proxy
from repro.core.reminders import ReminderAPI
from repro.core.retention import RetentionSet
from repro.core.router import Router
from repro.core.runtime import Component
from repro.core.state import ActorStateAPI, ActorStateCache

__all__ = [
    "Actor",
    "ActorContext",
    "ActorMailbox",
    "ActorMethodError",
    "ActorRef",
    "ActorRegistry",
    "ActorStateAPI",
    "ActorStateCache",
    "BackoffPolicy",
    "BreakerOpenError",
    "CircuitBreaker",
    "Component",
    "ControlPlane",
    "DeadLetter",
    "DecayingCounter",
    "InvocationCancelled",
    "KarApi",
    "KarApplication",
    "KarConfig",
    "KarError",
    "KarWorker",
    "NoPlacementError",
    "OverloadGuard",
    "PlacementController",
    "PlacementService",
    "ReminderAPI",
    "Request",
    "RetentionSet",
    "RetryBudget",
    "Response",
    "Router",
    "TailCall",
    "UnknownActorTypeError",
    "WorkerLoop",
    "actor_proxy",
    "parent_partition",
    "sub_partition_names",
]
