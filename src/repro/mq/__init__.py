"""Simulated Apache Kafka.

KAR delegates reliable messaging, discovery, health monitoring, failure
detection, and consensus to Kafka (Section 4.2). This package reproduces the
parts of Kafka the paper relies on:

- append-only partitioned topics with offsets and bulk expiry (Section 4.1:
  messages are never removed from the middle of a queue; they expire after a
  configurable delay or above a configurable size, defaulting to 10 minutes);
- consumer groups with heartbeats, a session timeout, generations, and a
  join/sync rebalance -- the paper's *detection* and *consensus* phases;
- fencing: a member evicted from the group can neither produce nor consume
  (the forceful-disconnection half of Section 4.2), and the group pauses
  message flow until the elected leader finishes reconciliation.
"""

from repro.mq.broker import Broker, BrokerConfig, Topic
from repro.mq.errors import (
    FencedMemberError,
    JournalLockedError,
    MQError,
    StaleLeaseError,
    StaleRouteError,
)
from repro.mq.group import (
    GenerationInfo,
    GroupCoordinator,
    GroupMember,
)
from repro.mq.log import BrokerLog, FileJournalLog, MemoryBrokerLog
from repro.mq.records import Record, RecordRun

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerLog",
    "FencedMemberError",
    "FileJournalLog",
    "GenerationInfo",
    "GroupCoordinator",
    "GroupMember",
    "JournalLockedError",
    "MQError",
    "MemoryBrokerLog",
    "Record",
    "RecordRun",
    "StaleLeaseError",
    "StaleRouteError",
    "Topic",
]
