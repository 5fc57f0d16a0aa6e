"""Actor placement: compare-and-swap on the store, plus a local cache.

Runtime processes coordinate actor placement using a CAS on the persistent
store; each runtime keeps a placement cache invalidated on component
failures (Section 4.1). Table 2's "KAR Actor (no cache)" row disables the
cache, paying one store round trip per invocation.

Resolution is *single-flight* per component: when many concurrent sends
target the same (cache-missed) actor, the first caller runs the store
GET+CAS loop and every other caller shares its in-flight result instead of
issuing redundant round trips. Single-flight is the fan-in analogue of the
placement cache and is disabled with it, so the "no cache" ablation still
pays full store cost per invocation.
"""

from __future__ import annotations

import re
import zlib

from repro.core.errors import NoPlacementError
from repro.core.refs import ActorRef
from repro.kvstore import StoreClient

__all__ = [
    "PlacementService",
    "parent_partition",
    "placement_key",
    "sub_partition_names",
]

#: Trailing suffix of a sub-partition name minted by a hot-component split.
_SUB_PARTITION_RE = re.compile(r"^(?P<parent>.+)\.s\d+$")


def placement_key(ref: ActorRef) -> str:
    return f"placement:{ref.type}:{ref.id}"


def sub_partition_names(parent: str, count: int) -> tuple[str, ...]:
    """Names of the ``count`` sub-partitions a split of ``parent`` creates.

    The names are ordinary component names (they join the group, hold
    epoch-fenced partition leases, and are hosted on workers like any other
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


def rekey_choice(
    ref: ActorRef, current: str | None, candidates: list[str]
) -> str:
    """Pick a component for ``ref`` when ``current`` is dead or unset.

    Split-aware: a hot component splits into ``<name>.s<i>`` children that
    the cluster deliberately spreads over the least-busy workers, so when
    the dead placement is a split parent its actors re-key *onto the
    children* -- an even, worker-spread re-shard of exactly the hot key
    range -- rather than scattering over every candidate (which lands
    clumps of hot actors on arbitrary components and re-creates the
    hotspot elsewhere). Symmetrically, a dead child re-keys back to its
    restarted parent after a merge, restoring the pre-split placement.
    The rule is purely name-based, so every resolver (clients and
    components alike) derives the same choice from the same candidates.

    The child choice salts the hash with the parent name: the actors on a
    split parent are exactly those whose unsalted ``stable_hash`` fell in
    the parent's bucket, so reusing that hash modulo ``len(children)``
    would send all of them to the *same* child whenever the child count
    shares a factor with the top-level component count -- the split would
    re-create the hotspot it was meant to break.
    """
    if current is not None:
        children = [
            name for name in candidates if parent_partition(name) == current
        ]
        if children:
            salted = zlib.crc32(
                f"{ref.type}:{ref.id}@{current}".encode()
            )
            return children[salted % len(children)]
        parent = parent_partition(current)
        if parent is not None and parent in candidates:
            return parent
    return candidates[ref.stable_hash() % len(candidates)]


class PlacementService:
    """Per-component placement client.

    Placement values are *component names* (stable across restarts); the
    caller resolves a name to the live member incarnation.
    """

    def __init__(self, client: StoreClient, cache_enabled: bool = True):
        self._client = client
        self._cache_enabled = cache_enabled
        self._cache: dict[ActorRef, str] = {}
        self._inflight: dict[ActorRef, object] = {}
        #: Resolutions that ran the store lookup themselves.
        self.store_resolutions = 0
        #: Resolutions that piggybacked on another caller's in-flight lookup.
        self.shared_resolutions = 0

    def invalidate_components(self, component_names: set[str]) -> None:
        """Drop cache entries pointing at failed components."""
        stale = [
            ref for ref, name in self._cache.items() if name in component_names
        ]
        for ref in stale:
            del self._cache[ref]

    def cache_peek(self, ref: ActorRef) -> str | None:
        return self._cache.get(ref) if self._cache_enabled else None

    async def resolve(self, ref: ActorRef, candidates: list[str]) -> str:
        """Return the component name hosting ``ref``, placing it if needed.

        ``candidates`` are the live component names that support the actor's
        type. The cache short-circuits the store on most invocations; cache
        misses read the store and, when the actor is unplaced (or placed on
        a component that no longer exists), race a CAS to claim it.
        Concurrent cache-missed resolutions for the same ``ref`` share one
        in-flight lookup instead of each paying the store round trips.
        """
        if not candidates:
            raise NoPlacementError(f"no live component supports {ref.type!r}")
        while True:
            cached = self.cache_peek(ref)
            if cached is not None and cached in candidates:
                return cached
            if not self._cache_enabled:
                # The "no cache" ablation (Table 2) measures uncached
                # placement cost: no sharing either -- every resolution
                # hits the store.
                return await self._lookup(ref, candidates)
            inflight = self._inflight.get(ref)
            if inflight is None:
                break
            self.shared_resolutions += 1
            resolved = await inflight
            if resolved in candidates:
                return resolved
            # The shared result points at a component this caller does not
            # consider live (membership moved mid-flight): re-check for a
            # fresher flight before running a lookup of our own.
        future = self._client.store.kernel.create_future()
        self._inflight[ref] = future
        try:
            resolved = await self._lookup(ref, candidates)
        except BaseException as error:
            if self._inflight.get(ref) is future:
                del self._inflight[ref]
            future.set_exception(error)
            raise
        if self._inflight.get(ref) is future:
            del self._inflight[ref]
        future.set_result(resolved)
        return resolved

    async def _lookup(self, ref: ActorRef, candidates: list[str]) -> str:
        """The store GET+CAS loop behind a cache-missed resolution."""
        self.store_resolutions += 1
        key = placement_key(ref)
        while True:
            current = await self._client.get(key)
            if current is not None and current in candidates:
                self._remember(ref, current)
                return current
            chosen = rekey_choice(ref, current, candidates)
            if await self._client.cas(key, current, chosen):
                self._remember(ref, chosen)
                return chosen
            # Lost the race; loop and adopt whatever won.

    def _remember(self, ref: ActorRef, component: str) -> None:
        if self._cache_enabled:
            self._cache[ref] = component
