"""Core types for the structured Gaussian detection problem.

An observation is a length-n real vector.  Under the null every coordinate is
standard normal.  Under a contaminated hypothesis the coordinates inside one
member S of a class of K-element index sets get mean mu > 0, variance stays 1.
A member is a sorted array of 0-based indices, one ``member_matrix`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .classes import SetClass

#: Ceiling on class cardinality for any operation that materializes members.
DEFAULT_ENUMERATION_CAP = 2_000_000


class DimensionMismatchError(ValueError):
    """Ambient dimensions of two objects disagree."""


class DegenerateParameterError(ValueError):
    """A parameter value makes the requested rule undefined (e.g. mu = 0)."""


class CapExceededError(RuntimeError):
    """Class cardinality exceeds the enumeration cap for this operation."""

    def __init__(self, cardinality: int, cap: int):
        self.cardinality = cardinality
        self.cap = cap
        super().__init__(
            f"class has {cardinality} members, enumeration capped at {cap}"
        )

    def __reduce__(self):
        # rebuilt from the counts, not from ``args`` (the message alone)
        return type(self), (self.cardinality, self.cap)


class AsymmetricClassError(ValueError):
    """Operation requires a symmetric class family."""


@dataclass(frozen=True)
class SeededRng:
    """Deterministic stream addressed by (master_seed, path of child keys).

    ``child(*keys)`` derives an independent substream; ``generator()`` returns
    a fresh numpy Generator whose output depends only on the full address, so
    identical addresses replay identical streams regardless of call order,
    chunking, or worker count.
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

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed,) + self.stream)
        return np.random.Generator(np.random.PCG64(seq))

    def child_seeds(self, lo: int, hi: int) -> list:
        """Seeds of ``self.child(t).generator()`` for t in [lo, hi).

        ``np.random.PCG64(seed)`` of each entry replays exactly the stream of
        that address.  The SeedSequence hash runs as uint32 array arithmetic
        over the whole block; a trial index of 2**32 or more, which numpy
        splits into several words, takes the per-address path instead.
        """
        if lo < 0:
            raise ValueError("stream keys must be nonnegative")
        address = (self.master_seed,) + self.stream
        if hi - 1 > _MASK32:
            return [np.random.SeedSequence(address + (t,)) for t in range(lo, hi)]
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_Seed)  # here, so importing the package skips numpy.random
        prefix = [w for key in address for w in _uint32_words(key)]
        t = np.arange(lo, hi, dtype=np.uint32)
        words = [np.full_like(t, w) for w in prefix] + [t]
        return [_Seed(state) for state in _seed_sequence_state(words)]


class _Seed(NamedTuple):
    """One address's ``SeedSequence.generate_state(4, np.uint64)``, which a bit
    generator seeds from through numpy's ``ISeedSequence`` interface."""

    state: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial seed holds exactly 4 uint64 words")
        return self.state


# numpy.random.SeedSequence: hash constants and a pool of four uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(key: int) -> list[int]:
    """SeedSequence's coercion of one nonnegative int: little-endian uint32
    words, one word for 0."""
    words = [key & _MASK32]
    key >>= 32
    while key:
        words.append(key & _MASK32)
        key >>= 32
    return words


def _seed_sequence_state(words: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for a block of
    entropies given word by word: ``words[i][j]`` is word i of entropy j.
    Returns a (block, 4) uint64 array."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = np.empty((zero.size, 2 * _POOL_SIZE), dtype=np.uint64)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ (value >> np.uint32(16))
    # uint32 pairs, low word first, make the uint64 words
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


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
