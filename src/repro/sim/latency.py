"""Latency models for simulated services.

The evaluation (Section 6.2) compares three deployment configurations that
differ only in where time goes: network hops, broker replication, disk
flushes, managed-service distance. We model each delay source as a
:class:`Latency` -- a base cost plus bounded jitter -- sampled from the
kernel's seeded generator so runs stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

__all__ = ["Latency"]


@dataclass(frozen=True)
class Latency:
    """A delay distribution: ``base`` seconds plus uniform jitter.

    ``jitter`` is the half-width of a uniform perturbation, truncated so
    samples never go below ``floor`` (defaults to half the base, and never
    below zero). Medians therefore sit at ``base``, matching how the paper
    reports medians.

    On an instance, ``fixed`` is the delay every sample returns -- ``base``
    when there is no jitter -- or ``None`` when samples vary. A fixed
    latency never draws from the generator, so the runtime's hot paths read
    ``fixed`` and call :meth:`sample` only when it is ``None``; no draw
    moves. (On the class, ``Latency.fixed(seconds)`` is the constructor of
    such a latency.)
    """

    base: float
    jitter: float = 0.0
    floor: float | None = None

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"negative base latency: {self.base}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {self.jitter}")
        if self.floor is not None and self.floor < 0:
            raise ValueError(f"negative latency floor: {self.floor}")
        # Not a field: derived, so ``replace`` and ``scaled`` recompute it
        # and equality, hashing and ``repr`` ignore it.
        object.__setattr__(self, "fixed", self.base if self.jitter == 0.0 else None)

    def sample(self, rng: Random) -> float:
        if self.jitter == 0.0:
            return self.base
        lower = self.floor if self.floor is not None else max(0.0, self.base / 2)
        value = self.base + rng.uniform(-self.jitter, self.jitter)
        return max(lower, value)

    def scaled(self, factor: float) -> "Latency":
        return Latency(self.base * factor, self.jitter * factor, self.floor)

    @staticmethod
    def fixed(seconds: float) -> "Latency":
        return Latency(seconds, 0.0)

    @staticmethod
    def around(seconds: float, spread: float) -> "Latency":
        """Base ``seconds`` with +/- ``spread`` uniform jitter."""
        return Latency(seconds, spread)
