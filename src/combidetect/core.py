"""Core types for the structured Gaussian detection problem.

An observation is a length-n real vector.  Under the null every coordinate is
standard normal.  Under a contaminated hypothesis the coordinates inside one
member S of a class of K-element index sets get mean mu > 0, variance stays 1.
A member is a sorted array of 0-based indices, one ``member_matrix`` row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

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

    def generators(self, *columns: np.ndarray) -> list[np.random.Generator]:
        """``self.child(*keys).generator()`` for each row ``keys`` of the
        equal-length key columns, bit for bit.

        The SeedSequence hash runs as uint32 array arithmetic over the whole
        block; a key of 2**32 or more, which numpy splits into several words,
        takes the per-address path instead.
        """
        keys = np.array(columns, dtype=np.int64)
        if keys.min(initial=0) < 0:
            raise ValueError("stream keys must be nonnegative")
        if keys.max(initial=0) > _MASK32:
            return [self.child(*k).generator() for k in keys.T]
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_Seed)  # here, so importing the package skips numpy.random
        address = (self.master_seed,) + self.stream
        prefix = np.array([w for key in address for w in _uint32_words(key)], dtype=np.int64)
        words = np.vstack([np.repeat(prefix[:, None], keys.shape[1], 1), keys]).astype(np.uint32)
        states = _seed_sequence_state(words)
        return list(map(np.random.Generator, map(np.random.PCG64, map(_Seed, list(states)))))


class _Seed:
    """One address's ``SeedSequence.generate_state(4, np.uint64)``, which a bit
    generator seeds from through numpy's ``ISeedSequence`` interface."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or not (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            raise ValueError("a trial seed holds exactly 4 uint64 words")
        return self.state


# numpy.random.SeedSequence: hash constants and a pool of four uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(calls, 1) uint32 columns: hash call i xors with c_i and multiplies by
    c_{i+1}, where c_0 = init and c_{i+1} = c_i * mult mod 2**32."""
    c = [init]
    for _ in range(calls):
        c.append((c[-1] * mult) & _MASK32)
    table = np.array(c, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


def _uint32_words(key: int) -> list[int]:
    """SeedSequence's coercion of one nonnegative int: little-endian uint32
    words, one word for 0."""
    words = [key & _MASK32]
    key >>= 32
    while key:
        words.append(key & _MASK32)
        key >>= 32
    return words


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> 16
    return r


def _seed_sequence_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for a block of
    entropies given word by word: ``words[i, j]`` is word i of entropy j, a
    (W, block) uint32 array.  Returns a (block, 4) uint64 array.

    Every hash call that numpy makes one word at a time runs here on a row of
    a (3, block) or (4, block) array, with the constants in call order."""
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(len(words), _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    pool[: len(words)] = words[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    call = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        # pool[i_src] stays put while it is mixed into the other three words
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        hashed = _hashmix(pool[i_src], xor[call : call + 3], mult[call : call + 3])
        pool[dst] = _mix(pool[dst], hashed)
        call += 3
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, xor[call : call + 4], mult[call : call + 4]))
        call += 4
    # generate_state reads the pool twice over for its 8 uint32 words
    out = _hashmix(np.tile(pool, (2, 1)), *_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    # uint32 pairs, low word first, make the uint64 words; PCG64 reads each
    # row's memory, so the rows must be contiguous
    out = out.T.astype(np.uint64, order="C")
    return out[:, 0::2] | (out[:, 1::2] << 32)


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
