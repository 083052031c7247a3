"""Core types for the structured Gaussian detection problem.

An observation is a length-n real vector.  Under the null every coordinate is
standard normal.  Under a contaminated hypothesis the coordinates inside one
member S of a class of K-element index sets get mean mu > 0, variance stays 1.
A member is a sorted array of 0-based indices, one ``member_matrix`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .classes import SetClass

#: Ceiling on class cardinality for any operation that materializes members,
#: on the 2^m mask states of the matchings LR's subset DP, and on the work
#: set of the clique contraction, past which the cliques enumerate.
DEFAULT_ENUMERATION_CAP = 2_000_000


class DimensionMismatchError(ValueError):
    """Ambient dimensions of two objects disagree."""


class DegenerateParameterError(ValueError):
    """A parameter value makes the requested rule undefined (e.g. mu = 0)."""


class CapExceededError(RuntimeError):
    """Class cardinality, or the states of a kernel that stands in for
    enumeration (``counted`` names which), exceeds the enumeration cap."""

    def __init__(self, cardinality: int, cap: int, counted: str = "class has {} members"):
        self.cardinality, self.cap, self.counted = cardinality, cap, counted
        super().__init__(f"{counted.format(cardinality)}, enumeration capped at {cap}")

    def __reduce__(self):
        # rebuilt from the counts, not from ``args`` (the message alone)
        return type(self), (self.cardinality, self.cap, self.counted)


class AsymmetricClassError(ValueError):
    """Operation requires a symmetric class family."""


@dataclass(frozen=True)
class SeededRng:
    """Deterministic stream addressed by (master_seed, path of child keys).

    ``child(*keys)`` derives an independent substream; ``generator(*keys)``
    returns a fresh numpy Generator of ``child(*keys)``, whose output depends
    only on the full address, so identical addresses replay identical streams
    regardless of call order, chunking, or worker count.
    """

    master_seed: int
    stream: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if any(k < 0 for k in self.stream):
            raise ValueError("stream keys must be nonnegative")

    def child(self, *keys: int) -> "SeededRng":
        return SeededRng(self.master_seed, self.stream + tuple(int(k) for k in keys))

    def generator(self, *keys: int) -> np.random.Generator:
        words = (self.master_seed, *self.stream, *map(int, keys))
        if min(words) < 0:  # the seed and stream were checked at construction
            raise ValueError("stream keys must be nonnegative")
        if max(words) < 2**32:
            # the tuple's entropy words as they are, which SeedSequence takes
            # without coercing each int: the same state, in about half the time
            words = np.array(words, dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def checked_mu(mu: float) -> float:
    """``mu`` as a float; refused unless finite and nonnegative."""
    if not np.isfinite(mu) or mu < 0:
        raise ValueError("mu must be finite and nonnegative")
    return float(mu)


def as_vector(x: "np.ndarray | Iterable[float]", n: int) -> np.ndarray:
    """Coerce an observation to a validated finite length-n float vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size != n:
        raise DimensionMismatchError(f"expected a length-{n} vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("observation must be finite")
    return v


@dataclass(frozen=True)
class ProblemInstance:
    """A class of candidate index sets together with the shift size mu >= 0."""

    set_class: "SetClass"
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", checked_mu(self.mu))

    @property
    def n(self) -> int:
        return self.set_class.n

    @property
    def K(self) -> int:
        return self.set_class.K
