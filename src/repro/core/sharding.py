"""Consistent-hash sharding of components (partitions) across workers.

The scale-out runtime assigns each actor-hosting component -- and with it
the component's dedicated broker partition -- to one worker event loop.
The assignment must be:

- *deterministic*: every control-plane observer derives the identical map
  from the same worker set (no coordination round needed to agree on it);
- *balanced*: the throughput gates require near-perfect spread, so a plain
  hash ring (whose arc lengths vary wildly at small worker counts) is
  tightened with a bounded-load rule -- no worker takes more than
  ``ceil(items / workers)`` components, overflow walking on to the next
  worker clockwise;
- *stable*: adding or removing one worker moves only the components on the
  affected arcs (plus bounded-load overflow), not the whole map -- each
  moved component pays a drain + fence + replay handoff, so minimal
  movement is a real cost bound.

Hashing uses :func:`hashlib.blake2b` rather than Python's ``hash`` so the
ring is identical across processes and runs (``PYTHONHASHSEED`` does not
leak into placement).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import re
from typing import Iterable, Mapping, Sequence

__all__ = [
    "HashRing",
    "parent_partition",
    "sub_partition_names",
]

#: Virtual nodes per worker; enough to keep arcs fine-grained at 2-8
#: workers without making ring construction a cost.
DEFAULT_REPLICAS = 64


def _point(token: str) -> int:
    """A stable 64-bit ring coordinate for ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring with virtual nodes and bounded-load lookup."""

    def __init__(self, workers: Sequence[str], replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.workers = tuple(sorted(set(workers)))
        self.replicas = replicas
        points: list[tuple[int, str]] = []
        for worker in self.workers:
            for index in range(replicas):
                points.append((_point(f"{worker}\x00{index}"), worker))
        # Ties (astronomically unlikely) break on worker id for determinism.
        points.sort()
        self._points = [point for point, _worker in points]
        self._owners = [worker for _point, worker in points]

    def successors(self, item: str) -> Iterable[str]:
        """Distinct workers in clockwise order from ``item``'s ring point."""
        if not self.workers:
            return
        start = bisect.bisect_right(self._points, _point(item))
        seen: set[str] = set()
        for offset in range(len(self._owners)):
            worker = self._owners[(start + offset) % len(self._owners)]
            if worker not in seen:
                seen.add(worker)
                yield worker
                if len(seen) == len(self.workers):
                    return

    def assign(
        self,
        items: Sequence[str],
        weights: Mapping[str, float] | None = None,
    ) -> dict[str, str]:
        """Map every item to a worker, bounded-load balanced.

        Items are placed in sorted order (determinism); each takes the
        first clockwise worker with spare capacity, capacity being
        ``ceil(len(items) / len(workers))``.

        With ``weights`` (item -> measured load, missing items count as 0)
        the bound becomes *weighted*: capacity is the ideal per-worker load
        share (never below the heaviest single item, which must land
        somewhere), items place heaviest-first, and an item that fits no
        successor under the bound takes the least-loaded one. All-zero
        weights fall back to the unweighted count rule, so idle workers
        keep the count-balanced assignment.
        """
        if not self.workers:
            raise ValueError("cannot assign items to an empty worker set")
        ordered = sorted(set(items))
        load_of = {
            item: max(0.0, float((weights or {}).get(item, 0.0)))
            for item in ordered
        }
        if weights is not None and any(load_of.values()):
            return self._assign_weighted(ordered, load_of)
        capacity = math.ceil(len(ordered) / len(self.workers)) if ordered else 0
        loads: dict[str, int] = {worker: 0 for worker in self.workers}
        assignment: dict[str, str] = {}
        for item in ordered:
            chosen = None
            for worker in self.successors(item):
                if loads[worker] < capacity:
                    chosen = worker
                    break
            if chosen is None:  # pragma: no cover - capacity math forbids it
                chosen = next(iter(self.successors(item)))
            loads[chosen] += 1
            assignment[item] = chosen
        return assignment

    def _assign_weighted(
        self, ordered: Sequence[str], load_of: Mapping[str, float]
    ) -> dict[str, str]:
        total = sum(load_of.values())
        capacity = max(total / len(self.workers), max(load_of.values()))
        loads: dict[str, float] = {worker: 0.0 for worker in self.workers}
        assignment: dict[str, str] = {}
        # Heaviest first so light items fill the gaps the heavy ones leave;
        # name tie-break keeps the order deterministic.
        for item in sorted(ordered, key=lambda name: (-load_of[name], name)):
            weight = load_of[item]
            chosen = None
            for worker in self.successors(item):
                if loads[worker] + weight <= capacity + 1e-9:
                    chosen = worker
                    break
            if chosen is None:
                chosen = min(
                    self.successors(item), key=lambda worker: loads[worker]
                )
            loads[chosen] += weight
            assignment[item] = chosen
        return assignment


# ----------------------------------------------------------------------
# hot-component sub-partitions
# ----------------------------------------------------------------------
#: Trailing suffix of a sub-partition name minted by a hot-component split.
_SUB_PARTITION_RE = re.compile(r"^(?P<parent>.+)\.s\d+$")


def sub_partition_names(parent: str, count: int) -> tuple[str, ...]:
    """Names of the ``count`` sub-partitions a split of ``parent`` creates.

    The names are ordinary component names (they join the group, hold
    epoch-fenced partition leases, and shard across workers like any other
    component); the ``.s<i>`` suffix only records lineage so the controller
    can merge them back when the parent's load cools.
    """
    if count < 2:
        raise ValueError("a split needs at least 2 sub-partitions")
    return tuple(f"{parent}.s{index}" for index in range(count))


def parent_partition(name: str) -> str | None:
    """The parent component a sub-partition split from, or ``None``."""
    match = _SUB_PARTITION_RE.match(name)
    return match.group("parent") if match else None
