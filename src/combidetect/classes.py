"""Families of candidate index-set classes.

Each family describes a class C of K-element subsets of {1..n} with exact
cardinality, an exactly-uniform sampler, canonical (lexicographic) member
enumeration under a cap, and the batch hooks the risk estimators run on.
Graph families live on the complete graph K_m (edges numbered
lexicographically by endpoint pair, 1-based) or on the complete bipartite
graph K_{m,m} (edge (i, j) numbered (i-1)m + j).

A member is a sorted 0-based index array, the form of one ``member_matrix``
row, so coordinate i above is index i - 1 there: ``sample_rows`` draws a block
of them and ``ExplicitClass`` is built from such rows.

The batch hooks enumerate members by default, gathering member sums
member-major.  Families with an exact structured kernel override them: an
elementary-symmetric-polynomial DP for k-sets, a subset DP over column masks
for matchings (one recurrence in the (logaddexp, +) and (max, +) semirings), a
log-domain matrix-tree elimination and Prim's algorithm for spanning trees,
and for 3- and 4-cliques a dense contraction over vertex pairs for the
likelihood ratio (in the (+, x) semiring) and the triangle maximum (in
(max, +)), and a branch and bound over anchor pairs for the 4-clique
maximum.  Enumeration stays the reference they are tested against.

A Monte Carlo trial draws X, or, where the member sums a test reads have an
exact law in fewer coordinates (``SetClass.member_sums``: the averaging sum,
the star sums and the disjoint block sums), a ``MemberSums`` draws those.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator

import numpy as np

from ._assignment import assignment_value
from .core import DEFAULT_ENUMERATION_CAP, CapExceededError, SeededRng, checked_mu

#: soft ceiling on rows x members x K per member-sum block of _BLOCK_ROWS
#: rows.  It sets the chunk, and with it the bits of the streaming
#: log-sum-exp, from K alone, never from the rows beside a row.
_BLOCK_BUDGET = 8_000_000

#: float64 values (1 MiB) that stay in a 2 MiB L2 cache: the normals of a draw
#: slice in risk.py, so its rule call reads them from cache, and the elements
#: of one sub-block of the matchings DP (rows x widest layer), of the triangle
#: maximum (a range x c x rows) and of the 4-clique search (rows x m x m
#: weights) and its chunks (the sums of one b's anchor pairs x the pairs
#: c < d above b, with a term added to them), whose gathers run faster there
_CACHE_FLOATS = 1 << 17

#: rows per sub-block of the generic hooks.  A draw slice can hold more
#: (_CACHE_FLOATS // draws rows in risk.py, 65,536 for DisjointSets(2,1)), and
#: the hooks cut it into sub-blocks of _BLOCK_ROWS.  With _BLOCK_BUDGET it
#: fixes the member chunk, and with it the bits of the likelihood ratio.
_BLOCK_ROWS = 1024

#: elements per piece of a member-sum block: the piece and the gather added
#: to it fill _CACHE_FLOATS together
_GATHER_PIECE = _CACHE_FLOATS // 2

#: largest m whose matchings maximum runs the subset DP rather than the
#: per-row assignment solver.  Per row on a 2-vCPU host, in 1024-row batches
#: through max_values_batch (two runs each), the DP took 224-225 us at m = 12
#: and 380-570 us at m = 13 against the solver's 1080-1130 and 1020-1230 us;
#: at m = 14 the DP took 1120-1770 us against 1190-1260.
_MAX_DP_M = 13

#: smallest shifted clique sum the contraction trusts.  Above it, the terms
#: that underflowed on the way (each below 2**-1022) add less than
#: N * 2**-122 of the sum, far below one rounding error for every class the
#: contraction runs on (N < 2**25).
_CONTRACTION_FLOOR = 2.0**-900

def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` for finite ``a``, shifted by the max.
    The terms are added left to right, whatever the layout of ``a``."""
    a = np.moveaxis(a, axis, 0)
    top = a.max(axis=0)
    total = np.exp(a[0] - top)
    for t in a[1:]:
        total += np.exp(t - top)
    return top + np.log(total)


def _per_row_mu(kernel):
    """A ``log_mean_exp_batch`` of mu, a float or one value per row, whose kernel
    scales each row by its entry of a (B, 1) column; a row at mu = 0 gives exactly 0."""
    @functools.wraps(kernel)
    def batch(self, mu, X, cap=None):
        mu = np.broadcast_to(np.reshape(mu, (-1, 1)), (X.shape[0], 1))
        zero = mu[:, 0] == 0.0
        return np.zeros(X.shape[0]) if zero.all() else np.where(zero, 0.0, kernel(self, mu, X, cap))
    return batch


def _resolve_cap(cap: int | None) -> int:
    return DEFAULT_ENUMERATION_CAP if cap is None else int(cap)


def _row_blocks(rows: int, width: int, budget: int) -> Iterator[slice]:
    """Slices of ``rows`` that keep rows x width under ``budget``."""
    step = max(1, budget // max(1, width))
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _floyd_codes(gen: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """(rows, k) draws of Floyd's algorithm, t_i uniform in [0, n - k + i]."""
    return gen.integers(0, n - k + 1 + np.arange(k), size=(rows, k))


def _floyd_subsets(t: np.ndarray, n: int, k: int) -> np.ndarray:
    """The sorted k-subsets of range(n) of a block of Floyd draws, each
    exactly uniform: step i takes t_i, or n - k + i when t_i is already
    taken.  Written over ``t``, O(rows k) memory."""
    for i in range(1, k):
        taken = (t[:, :i] == t[:, i, None]).any(axis=1)
        t[taken, i] = n - k + i
    t.sort(axis=1)
    return t


def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) int32 array of the k-subsets of range(n), lexicographic."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.int32).reshape(-1, k)


def complete_graph_edges(m: int) -> np.ndarray:
    """(n, 2) array of 0-based endpoint pairs of K_m in lexicographic order."""
    a, b = np.triu_indices(m, 1)
    return np.stack([a, b], axis=1).astype(np.int32)


def _pair_ids(m: int) -> np.ndarray:
    """Symmetric (m, m) int32 table of the 0-based edge id of each vertex
    pair of K_m; the diagonal holds 0 and is not an edge."""
    a, b = np.triu_indices(m, 1)
    pid = np.zeros((m, m), dtype=np.int32)
    pid[a, b] = np.arange(a.size, dtype=np.int32)
    return pid + pid.T


class SetClass:
    """Base class: a family of equal-size index sets with sampling,
    enumeration and the batch hooks of the tests."""

    family = "abstract"
    is_symmetric = False
    #: the constructor's arguments, which are also attributes of an instance
    params: tuple[str, ...] = ()

    n: int
    K: int

    def cardinality(self) -> int:
        raise NotImplementedError

    def sample_rows(self, gen: np.random.Generator, rows: int) -> np.ndarray:
        """Draw ``rows`` independent members, each exactly uniform, from one
        ``integers`` call on ``gen``: a (rows, K) array of sorted 0-based
        members.

        The call fills its draws row by row, so the first k rows of a call
        are what a k-row call on the same stream draws.
        """
        return self._members(self._codes(gen, rows))

    def _codes(self, gen: np.random.Generator, rows: int) -> np.ndarray:
        """The one ``integers`` call of ``sample_rows``: one row of codes per
        member, so the codes of several calls stack into one block."""
        raise NotImplementedError

    def _members(self, codes: np.ndarray) -> np.ndarray:
        """The (rows, K) sorted members of a block of codes, row by row; it
        may overwrite ``codes``."""
        raise NotImplementedError

    def to_params(self) -> dict:
        return {"family": self.family} | {p: getattr(self, p) for p in self.params}

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.to_params().items() if k != "family")
        return f"{type(self).__name__}({items})"

    @classmethod
    @functools.lru_cache(maxsize=64)
    def _shared(cls, *params) -> "SetClass":
        # one instance per family and params in a process: caches built once
        return cls(*params)

    def __reduce_ex__(self, protocol):
        # a family pickles as its params, never its caches
        return type(self)._shared, tuple(getattr(self, p) for p in self.params)

    # -- enumeration ---------------------------------------------------

    def _build_member_matrix(self) -> np.ndarray:
        raise NotImplementedError

    @functools.cached_property
    def _member_table(self) -> np.ndarray:
        return np.ascontiguousarray(self._build_member_matrix(), dtype=np.int32)

    def member_matrix(self, cap: int | None = None) -> np.ndarray:
        """(N, K) int32 matrix of 0-based members, canonical row order."""
        size, cap = self.cardinality(), _resolve_cap(cap)
        if size > cap:
            raise CapExceededError(size, cap)
        return self._member_table

    # -- batch evaluation hooks ----------------------------------------

    def member_sums_iter(self, X: np.ndarray, cap: int | None = None) -> Iterator[np.ndarray]:
        """Yield (B, chunk) blocks of member sums X_S over canonical order.

        Member-major: each block is the transpose of a C-contiguous
        (chunk, B) array, filled piece by piece from the rows of X.T.  A
        member's sum starts from its first index and adds the others left to
        right, for every row count, as numpy's ``X[:, rows].sum(axis=2)``
        does for B > 1.  The hooks pass at most _BLOCK_ROWS rows at a time.
        """
        M = self.member_matrix(cap)
        B = X.shape[0]
        chunk = max(1, _BLOCK_BUDGET // (_BLOCK_ROWS * self.K))
        piece = max(1, _GATHER_PIECE // max(1, B))
        XT = np.ascontiguousarray(X.T)
        for s in range(0, M.shape[0], chunk):
            rows = M[s : s + chunk]
            out = np.empty((rows.shape[0], B), dtype=XT.dtype)
            for p in range(0, rows.shape[0], piece):
                idx = rows[p : p + piece]
                acc = out[p : p + piece]
                # take with out= buffers under mode="raise"; without, it does not
                acc[...] = XT.take(idx[:, 0], axis=0)
                for j in range(1, self.K):
                    acc += XT.take(idx[:, j], axis=0)
            yield out.T

    def max_values_batch(self, X: np.ndarray, cap: int | None = None) -> np.ndarray:
        """max_S X_S per row of X."""
        best = np.full(X.shape[0], -np.inf)
        for rows in _row_blocks(X.shape[0], 1, _BLOCK_ROWS):
            for blk in self.member_sums_iter(X[rows], cap):
                np.maximum(best[rows], blk.max(axis=1), out=best[rows])
        return best

    def _enumerated_log_mean_exp(self, mu: np.ndarray, X: np.ndarray, cap: int | None = None) -> np.ndarray:
        """log((1/N) sum_S exp(mu * X_S)) per row, mu a (B, 1) column,
        streaming log-sum-exp that adds each chunk's terms in member order,
        for one row as for many."""
        out = np.empty(X.shape[0])
        for rows in _row_blocks(X.shape[0], 1, _BLOCK_ROWS):
            x = X[rows]
            hi, acc = np.full(len(x), -np.inf), np.zeros(len(x))
            for blk in self.member_sums_iter(x, cap):
                t = mu[rows] * blk
                top = np.maximum(hi, t.max(axis=1))
                # axis 0 sums in member order; a zero column keeps B = 1 off pairwise sums
                terms = np.zeros((t.shape[1], len(x) + 1))
                np.exp(t.T - top, out=terms[:, :-1])
                acc = acc * np.exp(hi - top) + terms.sum(axis=0)[:-1]
                hi = top
            out[rows] = hi + np.log(acc)
        return out - math.log(self.cardinality())

    log_mean_exp_batch = _per_row_mu(_enumerated_log_mean_exp)

    def overlap_pmf(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Exact law of |S ∩ S'| for two independent uniform members, when known."""
        return None

    # -- what a Monte Carlo trial draws ----------------------------------

    #: a trial of X draws its member's codes on the mixture arm
    coded = True

    @property
    def draws(self) -> int:
        """Normals a trial draws: the n coordinates of X."""
        return self.n

    def _observe(self, X: np.ndarray, rows: np.ndarray, codes: np.ndarray | None, mu: np.ndarray):
        """The block of drawn normals as the test reads it: X, shifted by mu
        on the member of each mixture row (rows, with its codes and mu)."""
        if codes is not None:
            X[rows[:, None], self._members(codes)] += mu[:, None]
        return X

    def member_sums(self, test: str) -> "MemberSums | None":
        """The exact law of the sums ``test`` reads, which a trial draws in
        place of X, or None where it draws X.  Every family's averaging
        statistic, the total of X, is N(0, n) under the null; the maximum
        and the LR read the member sums of ``_sums``."""
        if test == "averaging":
            return MemberSums(self, width=1, scale=math.sqrt(self.n), common=False)
        return self._sums()

    def _sums(self) -> "MemberSums | None":
        """The exact law of every member sum, where the family has one."""
        return None


class DisjointSets(SetClass):
    """N pairwise-disjoint blocks of K consecutive indices; n = N*K."""

    family = "disjoint"
    params = ("N", "K")
    is_symmetric = True

    def __init__(self, N: int, K: int):
        if N < 1 or K < 1:
            raise ValueError("DisjointSets requires N >= 1 and K >= 1")
        self.N = operator.index(N)
        self.K = operator.index(K)
        self.n = self.N * self.K

    def cardinality(self) -> int:
        return self.N

    def _codes(self, gen, rows):
        return gen.integers(self.N, size=rows)

    def _members(self, codes):
        return codes[:, None] * self.K + np.arange(self.K)

    def _build_member_matrix(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int32).reshape(self.N, self.K)

    def overlap_pmf(self):
        if self.N == 1:
            return np.array([self.K]), np.array([1.0])
        return np.array([0, self.K]), np.array([1 - 1 / self.N, 1 / self.N])

    def _sums(self):
        # the block sums are independent N(0, K); at K = 1, scale 1, they
        # are X itself, with the bits of X
        return MemberSums(self, width=self.N, scale=math.sqrt(self.K), common=False)


class MemberSums:
    """The member sums of a class, drawn from their exact Gaussian law.

    A row draws ``draws`` normals in one fill: g, ``width`` of them, then h
    when ``common``.  Its sums are ``scale * g``, plus h in every column, so
    their covariance is scale**2 I, plus J when common.  A mixture row whose
    member has code c adds mu * K to sum c and, when common, mu to every
    other, its overlap with c; with one sum a trial draws no codes.

    The tests read the sums with the kernels of DisjointSets(width, 1), the
    maximum and the log-mean-exp over them, while K stays the class's, so
    each rule keeps its threshold.  ``n`` stays the class's too, so its
    trials form the same groups of _chunk_size(n) as the class's.
    """

    def __init__(self, spec: SetClass, *, width: int, scale: float, common: bool):
        self.spec, self.n, self.K = spec, spec.n, spec.K
        self.width, self.scale, self.common = width, scale, common
        self.draws = width + common
        self.coded = width > 1
        self.kernels = DisjointSets._shared(width, 1)

    def _codes(self, gen, rows):
        return self.spec._codes(gen, rows)

    def _observe(self, Z, rows, codes, mu):
        Y = Z[:, : self.width]
        Y *= self.scale
        if self.common:
            Y += Z[:, self.width :]
        if rows.size:
            at = (rows, codes if self.coded else 0)
            own = Y[at] + mu * self.K
            if self.common:
                Y[rows] += mu[:, None]
            Y[at] = own
        return Y

    def max_values_batch(self, Y, cap=None):
        return self.kernels.max_values_batch(Y, cap)

    def log_mean_exp_batch(self, mu, Y, cap=None):
        return self.kernels.log_mean_exp_batch(mu, Y, cap)


class KSets(SetClass):
    """All K-element subsets of {1..n}."""

    family = "ksets"
    params = ("n", "K")
    is_symmetric = True

    def __init__(self, n: int, K: int):
        if not 1 <= K <= n:
            raise ValueError("KSets requires 1 <= K <= n")
        self.n = operator.index(n)
        self.K = operator.index(K)

    def cardinality(self) -> int:
        return math.comb(self.n, self.K)

    def _codes(self, gen, rows):
        return _floyd_codes(gen, rows, self.n, self.K)

    def _members(self, codes):
        return _floyd_subsets(codes, self.n, self.K)

    def _build_member_matrix(self) -> np.ndarray:
        return _subsets(self.n, self.K)

    def max_values_batch(self, X, cap=None):
        # the top K entries, added left to right in index order as the
        # enumeration adds a member's, so a row whose top K is unique gets its bits
        top = np.sort(np.argpartition(X, self.n - self.K, axis=1)[:, self.n - self.K :], axis=1)
        return np.take_along_axis(X, top, axis=1).cumsum(axis=1)[:, -1]

    @_per_row_mu
    def log_mean_exp_batch(self, mu, X, cap=None):
        # log-domain elementary symmetric polynomial recurrence, O(nK) per row;
        # evaluates the same sum over all C(n, K) members without enumerating.
        logt = mu * X
        B = X.shape[0]
        dp = np.full((B, self.K + 1), -np.inf)
        dp[:, 0] = 0.0
        for i in range(self.n):
            ti = logt[:, i]
            for k in range(min(i + 1, self.K), 0, -1):
                np.logaddexp(dp[:, k], dp[:, k - 1] + ti, out=dp[:, k])
        return dp[:, self.K] - math.log(self.cardinality())

    def overlap_pmf(self):
        n, K = self.n, self.K
        total = math.comb(n, K)
        zs = list(range(max(0, 2 * K - n), K + 1))
        probs = [math.comb(K, z) * math.comb(n - K, K - z) / total for z in zs]
        return np.array(zs), np.array(probs)


class Stars(SetClass):
    """All m stars of K_m: the m-1 edges incident to one center vertex."""

    family = "stars"
    params = ("m",)
    is_symmetric = True

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("Stars requires m >= 3")
        self.m = operator.index(m)
        self.n = math.comb(self.m, 2)
        self.K = self.m - 1
        # row c: the ids of the edges at vertex c, increasing with the far end
        self.incident = _pair_ids(self.m)[~np.eye(self.m, dtype=bool)].reshape(self.m, self.K)

    def cardinality(self) -> int:
        return self.m

    def _codes(self, gen, rows):
        return gen.integers(self.m, size=rows)

    def _members(self, codes):
        return self.incident[codes]

    def _build_member_matrix(self) -> np.ndarray:
        return self.incident

    def overlap_pmf(self):
        # same center w.p. 1/m (full overlap), else exactly the shared edge
        return np.array([1, self.K]), np.array([1 - 1 / self.m, 1 / self.m])

    def _sums(self):
        # a star has m - 1 edges and two stars share one, so the star sums
        # have covariance (m - 2) I + J, that of sqrt(m - 2) g + h
        return MemberSums(self, width=self.m, scale=math.sqrt(self.m - 2), common=True)


class PerfectMatchings(SetClass):
    """All m! perfect matchings of K_{m,m}; member of sigma is
    {(i-1)m + sigma(i)}."""

    family = "matchings"
    params = ("m",)
    is_symmetric = True

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("PerfectMatchings requires m >= 2")
        self.m = operator.index(m)
        self.n = self.m * self.m
        self.K = self.m

    def cardinality(self) -> int:
        return math.factorial(self.m)

    def _codes(self, gen, rows):
        return gen.integers(0, self.m - np.arange(self.m - 1), size=(rows, self.m - 1))

    def _members(self, codes):
        # Fisher-Yates over every row at once: step i swaps entry i with a
        # uniform entry i + r of the entries from i on
        m, rows = self.m, codes.shape[0]
        perms = np.tile(np.arange(m), (rows, 1))
        at = np.arange(rows)
        for i, j in enumerate(codes.T):
            j += i
            swap = perms[at, j]
            perms[at, j] = perms[:, i]
            perms[:, i] = swap
        return np.arange(m) * m + perms

    def _build_member_matrix(self) -> np.ndarray:
        perms = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(self.m))),
            dtype=np.int32,
        ).reshape(-1, self.m)
        return (np.arange(self.m, dtype=np.int32) * self.m)[None, :] + perms

    # -- subset DP over column masks -----------------------------------

    @functools.cached_property
    def _mask_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Index tables of the DP, one (src, col) pair per matrix row i.

        Layer i holds the masks of i+1 columns in ascending order.  Its state
        t extends state src[r, t] of layer i-1 by the r-th lowest column of
        t, r <= i, whose weight is entry col[r, t] of a row of X.
        """
        m = self.m
        masks = np.arange(1 << m, dtype=np.int32)
        pop = np.zeros(1 << m, dtype=np.int32)
        for b in range(m):
            pop += (masks >> b) & 1
        pos = np.empty(1 << m, dtype=np.int32)
        for k in range(m + 1):
            pos[pop == k] = np.arange(math.comb(m, k))
        layers = []
        for k in range(1, m + 1):
            layer = masks[pop == k]
            bits = (layer[:, None] >> np.arange(m, dtype=np.int32)) & 1
            col = np.ascontiguousarray(np.nonzero(bits)[1].astype(np.int32).reshape(-1, k).T)
            layers.append((pos[layer ^ (1 << col)], (k - 1) * m + col))
        return layers

    def _subset_dp(self, X: np.ndarray, tropical: bool) -> np.ndarray:
        """Fold the rows of each (m, m) weight matrix, a row of X, into
        column masks, in row sub-blocks with their rows innermost.

        ``tropical`` False is the (logaddexp, +) semiring, whose full-mask
        value is log perm(exp W); True is (max, +), whose value is the
        enumerated maximum bit for bit: each path adds its weights in row
        order, as a member's sum does, and rounded addition is nondecreasing
        in each argument, so a state's max is its paths' largest sum.
        """
        out = np.empty(X.shape[0])
        # widest candidate block of one row, (m choose k) masks x k columns, held twice
        width = 2 * max(k * math.comb(self.m, k) for k in range(1, self.m + 1))
        for blk in _row_blocks(X.shape[0], width, _CACHE_FLOATS):
            XT = np.ascontiguousarray(X[blk].T)
            value = np.full((1, XT.shape[1]), -0.0)  # -0.0 + w is w, zeros included
            for src, col in self._mask_layers:
                cand = value[src]
                cand += XT[col]
                value = cand.max(axis=0) if tropical else _logsumexp(cand, axis=0)
            out[blk] = value[0]
        return out

    def max_values_batch(self, X, cap=None):
        # the cap does not apply: the DP's tables are small up to _MAX_DP_M
        if self.m > _MAX_DP_M:
            return np.array([assignment_value(row.reshape(self.m, self.m)) for row in X])
        return self._subset_dp(X, tropical=True)

    @_per_row_mu
    def log_mean_exp_batch(self, mu, X, cap=None):
        if 1 << self.m > _resolve_cap(cap):  # the DP's 2^m mask states, under the member cap
            raise CapExceededError(1 << self.m, _resolve_cap(cap), "the subset DP has {} mask states")
        return self._subset_dp(mu * X, tropical=False) - math.log(self.cardinality())

    def overlap_pmf(self):
        # overlap of two uniform matchings = fixed points of a uniform permutation
        m = self.m
        der = [1, 0]
        for j in range(2, m + 1):
            der.append((j - 1) * (der[j - 1] + der[j - 2]))
        total = math.factorial(m)
        zs, probs = [], []
        for z in range(m + 1):
            count = math.comb(m, z) * der[m - z]
            if count > 0:
                zs.append(z)
                probs.append(count / total)
        return np.array(zs), np.array(probs)


class SpanningTrees(SetClass):
    """All m^(m-2) spanning trees of K_m, as (m-1)-element edge sets."""

    family = "trees"
    params = ("m",)
    is_symmetric = False

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("SpanningTrees requires m >= 2")
        self.m = operator.index(m)
        self.n = math.comb(self.m, 2)
        self.K = self.m - 1
        self._pair_id0 = _pair_ids(self.m)

    def cardinality(self) -> int:
        return self.m ** (self.m - 2)

    def _codes(self, gen, rows):
        # Cayley: a uniform sequence in [m]^(m-2) is the code of a uniform tree
        return gen.integers(self.m, size=(rows, self.m - 2))

    def _members(self, seqs: np.ndarray) -> np.ndarray:
        """Sorted edge ids of the trees of a (B, m - 2) block of Pruefer
        sequences.  Each step joins the smallest leaf to the next entry, and
        the last two leaves close the tree."""
        m, rows = self.m, np.arange(seqs.shape[0])
        degree = np.ones((rows.size, m), dtype=np.min_scalar_type(m))  # at most m - 1
        for entry in seqs.T:
            degree[rows, entry] += 1
        ids = np.empty((rows.size, m - 1), dtype=np.int32)
        for j, entry in enumerate(seqs.T):
            leaf = np.argmax(degree == 1, axis=1)
            ids[:, j] = self._pair_id0[leaf, entry]
            degree[rows, leaf] = 0
            degree[rows, entry] -= 1
        last = degree == 1
        ids[:, -1] = self._pair_id0[np.argmax(last, axis=1), m - 1 - np.argmax(last[:, ::-1], axis=1)]
        ids.sort(axis=1)
        return ids

    def _build_member_matrix(self) -> np.ndarray:
        m, count = self.m, self.cardinality()
        seqs = np.indices((m,) * (m - 2), dtype=np.int8).reshape(m - 2, count).T  # one row each
        ids = self._members(seqs)
        return ids[np.lexsort(ids.T[::-1])]

    def max_values_batch(self, X, cap=None):
        # Prim's algorithm from vertex 0, one step per vertex, over a block of
        # rows at once.  The chosen edges are added left to right in edge id
        # order, so a row whose maximum tree is unique gets the enumeration's bits.
        m = self.m
        pid = self._pair_id0
        out = np.empty(X.shape[0])
        for blk in _row_blocks(X.shape[0], m * m, _BLOCK_BUDGET):
            x = X[blk]
            rows = np.arange(x.shape[0])
            W = x[:, pid]
            key = W[:, 0].copy()
            parent = np.zeros((x.shape[0], m), dtype=np.intp)
            free = np.ones((x.shape[0], m), dtype=bool)
            free[:, 0] = False
            key[:, 0] = -np.inf
            ids = np.empty((x.shape[0], m - 1), dtype=np.intp)
            for j in range(m - 1):
                v = np.argmax(key, axis=1)
                ids[:, j] = pid[parent[rows, v], v]
                free[rows, v] = False
                key[rows, v] = -np.inf
                wv = W[rows, v]
                better = free & (wv > key)
                np.copyto(key, wv, where=better)
                np.copyto(parent, v[:, None], where=better)
            ids.sort(axis=1)
            out[blk] = np.take_along_axis(x, ids, axis=1).cumsum(axis=1)[:, -1]
        return out

    @_per_row_mu
    def log_mean_exp_batch(self, mu, X, cap=None):
        # weighted matrix-tree theorem: the tree polynomial is the determinant
        # of the Laplacian without the row and column of the root, here the
        # last vertex.  Eliminating vertex k adds w_ik w_kj / d_k to the
        # remaining weights and w_ik g_k / d_k to each weight g to the root,
        # and its pivot d_k is the sum of k's remaining weights plus g_k, so
        # no step subtracts (GTH-style) and everything stays in the log domain.
        r = self.m - 1
        pid = self._pair_id0
        out = np.zeros(X.shape[0])
        for blk in _row_blocks(X.shape[0], r * r, _BLOCK_BUDGET):
            lt = mu[blk] * X[blk]
            lw = lt[:, pid[:r, :r]]  # diagonal entries are never read
            lg = lt[:, pid[:r, r]]
            for k in range(r):
                rest = slice(k + 1, r)
                lwk = lw[:, k, rest]
                logd = _logsumexp(np.concatenate([lwk, lg[:, k, None]], axis=1), axis=1)
                out[blk] += logd
                np.logaddexp(
                    lw[:, rest, rest],
                    (lwk[:, :, None] + lwk[:, None, :]) - logd[:, None, None],
                    out=lw[:, rest, rest],
                )
                np.logaddexp(lg[:, rest], (lwk + lg[:, k, None]) - logd[:, None], out=lg[:, rest])
        return out - math.log(self.cardinality())


class Cliques(SetClass):
    """Edge sets of k-cliques of K_m; K = C(k,2), N = C(m,k)."""

    family = "cliques"
    params = ("m", "k")
    is_symmetric = True

    def __init__(self, m: int, k: int):
        if not 2 <= k <= m:
            raise ValueError("Cliques requires 2 <= k <= m")
        self.m = operator.index(m)
        self.k = operator.index(k)
        self.n = math.comb(self.m, 2)
        self.K = math.comb(self.k, 2)
        self.edges = complete_graph_edges(self.m)
        self._pair_id0 = _pair_ids(self.m)
        self._ia, self._ib = np.triu_indices(self.k, 1)

    def cardinality(self) -> int:
        return math.comb(self.m, self.k)

    def _edge_ids(self, vs: np.ndarray) -> np.ndarray:
        # rows of sorted vertices give lexicographic pairs, hence sorted edge ids
        return self._pair_id0[vs[:, self._ia], vs[:, self._ib]]

    def _codes(self, gen, rows):
        return _floyd_codes(gen, rows, self.m, self.k)

    def _members(self, codes):
        return self._edge_ids(_floyd_subsets(codes, self.m, self.k))

    def _build_member_matrix(self) -> np.ndarray:
        return self._edge_ids(_subsets(self.m, self.k))

    def _contraction_rows(self, cap: int | None) -> int:
        """The rows of the contraction's work set, the LR's largest per-row
        array ((m, m) for k = 3, (C(m,2), m) for k = 4), where both tests run
        on the pair contraction (and the 4-clique maximum on its search): k =
        3, 4 and the work set within the cap.  Else 0, and both enumerate."""
        rows = self.n if self.k == 4 else self.m
        return rows if self.k in (3, 4) and rows * self.m <= _resolve_cap(cap) else 0

    def max_values_batch(self, X, cap=None):
        # Each clique a < b < c (< d) is summed in the enumeration's order, its
        # sorted edge ids left to right: (ab + ac) + bc for k = 3 and
        # ((((ab + ac) + ad) + bc) + bd) + cd for k = 4, so every row gets the
        # enumeration's bits.  k = 3 is a dense (max, +) contraction anchored
        # on b, at once over every a < b and c > b, rows innermost: rounded
        # addition fl(x + y) is nondecreasing in x, so max_a (x_a + bc) =
        # (max_a x_a) + bc exactly, and bc is added once per b.  k = 4 is
        # _max4_search, which sums each kept anchor pair's cliques whole.
        if not self._contraction_rows(cap):
            return super().max_values_batch(X, cap)
        if self.k == 4:
            return self._max4_search(X)
        m, pid = self.m, self._pair_id0
        out = np.empty(X.shape[0])
        for blk in _row_blocks(X.shape[0], m - 2, _CACHE_FLOATS):
            XT = np.ascontiguousarray(X[blk].T)
            Wt = XT[pid]  # Wt[u, v] is edge uv's column of rows
            best = np.full(XT.shape[1], -np.inf)
            for b in range(1, m - 1):
                step = max(1, _CACHE_FLOATS // ((m - b - 1) * XT.shape[1]))
                y = None  # max over a of ab + ac
                for lo in range(0, b, step):
                    low = Wt[lo : min(lo + step, b)]  # one entry per a
                    s = low[:, b, None] + low[:, b + 1 :]
                    y = s.max(axis=0) if y is None else np.maximum(y, s.max(axis=0), out=y)
                y += Wt[b, b + 1 :]  # bc
                np.maximum(best, y.max(axis=0), out=best)
            out[blk] = best
        return out

    @functools.cached_property
    def _anchor_pairs(self):
        """Tables of the 4-clique search: the anchor pairs a < b with two
        vertices above b, in colex order (by b, then a), so that the pairs
        below a vertex c are a prefix; and per b, the id of edge
        (b + 1, b + 2), where the pairs c < d above b begin in the
        lexicographic edge list, how many of them each c starts, and each
        one's d - b - 1."""
        m = self.m
        a, b = np.triu_indices(m, 1)
        order = np.lexsort((a, b))[: math.comb(m - 2, 2)]
        first = self._pair_id0[np.arange(1, m - 1), np.arange(2, m)]
        reps = [np.arange(m - b - 2, -1, -1) for b in range(m - 2)]
        d = [self.edges[f:, 1] - (b + 1) for b, f in enumerate(first)]
        return a[order], b[order], first, reps, d

    def _max4_search(self, X):
        # Branch and bound over anchor pairs a < b, the first two vertices of
        # a clique abcd.  As abcd sums to ab + (ac + bc) + (ad + bd) + cd, the
        # cliques on a pair sum to at most ab + top2 + h, where top2 is the
        # largest g_c + g_d over c < d above b, g_c = ac + bc, and h is the
        # largest edge cd above b.  The best clique on a row's eight
        # highest-bound pairs is a lower bound lb, and the row's other pairs
        # are evaluated only where bound + margin >= lb, with margin =
        # 64 eps K max|x|.  Each clique sum and each bound adds at most K = 6
        # terms of size at most max|x|, each rounded step erring by at most
        # eps/2 of a partial sum (and not at all where the sum is subnormal),
        # so each lies within K K eps max|x| / 2 of its exact value: the
        # margin covers both errors about ten times over.  A pruned pair's
        # cliques thus sum strictly below a clique already found, and the
        # maximum, ties included, is the enumeration's, bit for bit.  A row
        # whose sums may overflow, or that holds NaN or an infinity, gets
        # margin inf, and bound + inf is never below lb (NaN compares false),
        # so such a row evaluates every pair; so does a row whose every pair
        # reaches lb, such as a constant row, the worst case: every clique is
        # evaluated, after the bounds.
        m, K, pid = self.m, self.K, self._pair_id0
        A, B, first, _, _ = self._anchor_pairs
        top_pairs = min(8, A.size)
        out = np.empty(X.shape[0])
        # overflow, NaN and the infinities propagate as in the enumeration, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            for blk in _row_blocks(X.shape[0], m * m, _CACHE_FLOATS):
                x = X[blk]
                W = x[:, pid]  # W[r, u, v] is edge uv of row r
                rows = np.arange(len(x))
                # two[r, p] = top2 of pair p: down from c = m - 1, the running max
                # of g over the c already seen plus g_c, over the pairs below c
                one = np.full((len(x), A.size), -np.inf)
                two = np.full((len(x), A.size), -np.inf)
                for c in range(m - 1, 1, -1):
                    q = min(A.size, c * (c - 1) // 2)
                    g = W[:, c].take(A[:q], axis=1)
                    g += W[:, c].take(B[:q], axis=1)
                    np.maximum(two[:, :q], one[:, :q] + g, out=two[:, :q])
                    np.maximum(one[:, :q], g, out=one[:, :q])
                above = np.maximum.accumulate(x[:, ::-1], axis=1)[:, ::-1]  # max of x[:, i:]
                bound = two
                bound += W[:, A, B]
                bound += above[:, first[B]]
                size = np.abs(x).max(axis=1)
                ok = size < np.finfo(float).max / (2 * K)  # no sum can overflow
                margin = np.where(ok, 64 * np.finfo(float).eps * K * size, np.inf)
                best = np.argpartition(bound, A.size - top_pairs, axis=1)[:, A.size - top_pairs :]
                lb = np.full(len(x), -np.inf)
                self._max4_pairs(W, x, np.repeat(rows, top_pairs), best.ravel(), lb)
                keep = ~(bound + margin[:, None] < lb[:, None])
                keep[rows[:, None], best] = False  # already evaluated
                p, r = np.nonzero(keep.T)
                self._max4_pairs(W, x, r, p, lb)
                out[blk] = lb
        return out

    def _max4_pairs(self, W, x, r, p, out):
        """np.maximum into out[r] the largest clique sum on anchor pair p of
        row r of the (rows, m, m) weights W of x, for every (r, p) given.
        Each pair's cliques abcd, c < d above b, are summed whole, in chunks
        of one b's pairs whose (pairs, c < d) sums and the term added to them
        stay under _CACHE_FLOATS together, and the maxima go to their rows."""
        A, B, first, reps, d = self._anchor_pairs
        o = np.argsort(B[p], kind="stable")
        r, a, b = r[o], A[p[o]], B[p[o]]
        runs = np.flatnonzero(np.diff(b, prepend=-1, append=-1))  # by b
        for lo, hi in zip(runs[:-1], runs[1:]):
            v = int(b[lo])
            f = first[v]
            step = max(1, _CACHE_FLOATS // (2 * (self.n - f)))
            for s0 in range(lo, hi, step):
                s1 = min(s0 + step, hi)
                rr = r[s0:s1]
                ac = W[rr, a[s0:s1], v:]  # ab, then ac for every c > b
                Wb = W[rr, v, v + 1 :]  # bc for every c > b
                s = np.repeat(ac[:, :1] + ac[:, 1:], reps[v], axis=1)  # ab + ac
                s += ac[:, 1:].take(d[v], axis=1)  # ad
                s += np.repeat(Wb, reps[v], axis=1)  # bc
                s += Wb.take(d[v], axis=1)  # bd
                s += x[rr, f:]  # cd
                np.maximum.at(out, rr, s.max(axis=1))

    @_per_row_mu
    def log_mean_exp_batch(self, mu, X, cap=None):
        # dense contraction of W = exp(mu x - top) over vertex pairs, zero on
        # the diagonal, so every weight is at most 1.  k = 3: each triangle is
        # one of 6 ordered triples in ((W @ W) * W).sum().  k = 4: for a pair
        # a < b, V[ab] = W[a] * W[b] and (U * V)[ab, d] with U = V @ W sums
        # W_ac W_bc W_cd W_ad W_bd over c; weighting by W_ab counts each
        # 4-clique once per pair and ordered (c, d), 12 times.  The rows it
        # does not decide go to the enumeration body.
        rows = self._contraction_rows(cap)
        if not rows:
            return self._enumerated_log_mean_exp(mu, X, cap)
        m, a, b = self.m, self.edges[:, 0], self.edges[:, 1]
        diag = np.arange(m)
        shift = np.empty(X.shape[0])
        total = np.empty(X.shape[0])
        # per-row work arrays, allocated once: fresh ones page-fault every row
        W = np.empty((m, m))
        U = np.empty((rows, m))
        for r, x in enumerate(X):
            t = mu[r] * x
            shift[r] = t.max()
            w = np.exp(t - shift[r])
            np.take(w, self._pair_id0, out=W)
            W[diag, diag] = 0.0
            if self.k == 3:
                np.matmul(W, W, out=U)
                U *= W
                total[r] = U.sum() / 6
            else:
                # take with out= buffers under mode="raise"; without, it does not
                V = W.take(a, axis=0)
                V *= W.take(b, axis=0)
                np.matmul(V, W, out=U)
                U *= V
                total[r] = U.sum(axis=1) @ w / 12
        out = np.empty(X.shape[0])
        # the declared fallback: a shifted sum this small may have lost
        # digits to underflow, so those rows enumerate in the log domain
        low = ~(total >= _CONTRACTION_FLOOR)
        if low.any():
            out[low] = self._enumerated_log_mean_exp(mu[low], X[low], cap)
        ok = ~low
        out[ok] = np.log(total[ok]) + self.K * shift[ok] - math.log(self.cardinality())
        return out

    def overlap_pmf(self):
        # shared vertices Y are hypergeometric; shared edges are C(Y, 2)
        m, k = self.m, self.k
        total = math.comb(m, k)
        acc: dict[int, int] = {}  # members per overlap, counted exactly, divided once
        for y in range(max(0, 2 * k - m), k + 1):
            z = math.comb(y, 2)
            acc[z] = acc.get(z, 0) + math.comb(k, y) * math.comb(m - k, k - y)
        zs = sorted(acc)
        return np.array(zs), np.array([acc[z] / total for z in zs])


class GridSquares(SetClass):
    """Axis-aligned sqrt_K x sqrt_K subsquares of a sqrt_n x sqrt_n grid,
    row-major 1-based cell numbering."""

    family = "grid"
    params = ("sqrt_n", "sqrt_K")
    is_symmetric = False

    def __init__(self, sqrt_n: int, sqrt_K: int):
        if not 1 <= sqrt_K <= sqrt_n:
            raise ValueError("GridSquares requires 1 <= sqrt_K <= sqrt_n")
        self.sqrt_n = operator.index(sqrt_n)
        self.sqrt_K = operator.index(sqrt_K)
        self.n = self.sqrt_n**2
        self.K = self.sqrt_K**2
        self.side = self.sqrt_n - self.sqrt_K + 1

    def cardinality(self) -> int:
        return self.side**2

    def _members(self, corners: np.ndarray) -> np.ndarray:
        # one row-major window per (top row, left column) row of ``corners``
        span = np.arange(self.sqrt_K)
        rows = (corners[:, :1] + span) * self.sqrt_n
        return (rows[:, :, None] + (corners[:, 1:] + span)[:, None, :]).reshape(-1, self.K)

    def _codes(self, gen, rows):
        # the top row, then the left column, of each window
        return gen.integers(self.side, size=(rows, 2))

    def _build_member_matrix(self) -> np.ndarray:
        return self._members(np.indices((self.side, self.side)).reshape(2, -1).T)

    def member_sums_iter(self, X, cap=None):
        # summed-area table; output order is row-major over positions,
        # matching canonical enumeration
        B = X.shape[0]
        s, a = self.sqrt_n, self.sqrt_K
        grid = X.reshape(B, s, s)
        sat = np.zeros((B, s + 1, s + 1))
        sat[:, 1:, 1:] = grid.cumsum(axis=1).cumsum(axis=2)
        win = sat[:, a:, a:] - sat[:, :-a, a:] - sat[:, a:, :-a] + sat[:, :-a, :-a]
        yield win.reshape(B, -1)

    def overlap_pmf(self):
        R, a = self.side, self.sqrt_K
        d = np.arange(R)
        pd = np.where(d == 0, R, 2.0 * (R - d)) / R**2  # law of |delta| per axis
        ov = np.maximum(0, a - d)
        zs, at = np.unique(np.multiply.outer(ov, ov), return_inverse=True)
        return zs, np.bincount(at.ravel(), np.multiply.outer(pd, pd).ravel())


class ExplicitClass(SetClass):
    """A class given by an explicit member list (e.g. a sampled subclass):
    an (N, K) integer array of 0-based rows, kept sorted as its member matrix."""

    family = "explicit"
    is_symmetric = False

    def __init__(self, n: int, rows: np.ndarray):
        M = np.asarray(rows)
        if M.ndim != 2 or M.size == 0:
            raise ValueError("ExplicitClass requires a nonempty (N, K) array of member rows")
        if M.dtype.kind not in "iu":
            raise ValueError(f"member rows must be integers, got dtype {M.dtype}")
        M = np.sort(M, axis=1)
        if M[:, 0].min() < 0 or M[:, -1].max() >= n:
            raise ValueError(f"indices must lie in [0, {n})")
        if np.any(M[:, 1:] == M[:, :-1]):
            raise ValueError("indices within a member must be distinct")
        M = M[np.lexsort(M.T[::-1])]  # lexicographic row order
        if np.any(np.all(M[1:] == M[:-1], axis=1)):
            raise ValueError("members must be distinct")
        self.n = operator.index(n)
        self.K = M.shape[1]
        self._member_table = M.astype(np.int32)

    def cardinality(self) -> int:
        return self._member_table.shape[0]

    def to_params(self) -> dict:
        return {"family": self.family, "n": self.n, "K": self.K, "N": self.cardinality()}

    def _codes(self, gen, rows):
        return gen.integers(self.cardinality(), size=rows)

    def _members(self, codes):
        return self._member_table[codes]

    __reduce_ex__ = object.__reduce_ex__  # pickles its rows


FAMILIES: dict[str, type[SetClass]] = {
    "disjoint": DisjointSets,
    "ksets": KSets,
    "stars": Stars,
    "matchings": PerfectMatchings,
    "trees": SpanningTrees,
    "cliques": Cliques,
    "grid": GridSquares,
}


def make_class(family: str, **params) -> SetClass:
    """Build a family instance from flat parameters (CLI/serialization entry)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {sorted(FAMILIES)}")
    wanted = FAMILIES[family].params
    missing = [p for p in wanted if params.get(p) is None]
    if missing:
        raise ValueError(f"family {family!r} requires parameters {wanted}, missing {missing}")
    extra = [p for p, v in params.items() if p not in wanted and v is not None]
    if extra:
        raise ValueError(f"family {family!r} does not take parameters {extra}")
    return FAMILIES[family](**{p: params[p] for p in wanted})


# -- pairwise overlap ----------------------------------------------------


def exact_overlap_mgf(spec: SetClass, mu: float) -> float | None:
    """E exp(mu^2 |S ∩ S'|) from the exact overlap law, when the family has
    one; OverflowError past the float range."""
    mu = checked_mu(mu)
    pmf = spec.overlap_pmf()
    if pmf is None:
        return None
    zs, probs = pmf
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at zero overlap
        mgf = float(np.sum(probs * np.exp(mu * mu * zs.astype(np.float64))))
    _check_mgf(mu, mgf)
    return mgf


def _check_mgf(mu: float, *values: float) -> None:
    # refuse rather than print inf or nan
    if not all(math.isfinite(v) for v in values):
        raise OverflowError(f"the overlap MGF at mu = {mu} is past the float range")


def estimate_overlap_mgf(
    spec: SetClass,
    mu: float,
    pairs: int,
    rng: SeededRng,
) -> tuple[float, float]:
    """(estimate, std_error) of E exp(mu^2 |S ∩ S'|) over independent pairs.

    DisjointSets, Stars and PerfectMatchings use their exact overlap law
    (std_error 0); every other family is Monte Carlo, its pairs drawn in
    blocks of at most _BLOCK_ROWS.  An MGF past the float range is refused
    with OverflowError.
    """
    mu = checked_mu(mu)
    if pairs < 2:
        raise ValueError("pairs must be >= 2")
    if isinstance(spec, (DisjointSets, Stars, PerfectMatchings)):
        return exact_overlap_mgf(spec, mu), 0.0
    gen = rng.generator()
    zs = np.empty(pairs)
    for lo in range(0, pairs, _BLOCK_ROWS):
        rows = spec.sample_rows(gen, 2 * min(_BLOCK_ROWS, pairs - lo))
        # a pair's rows are distinct within, so shared indices are equal neighbours
        both = np.sort(np.concatenate([rows[0::2], rows[1::2]], axis=1), axis=1)
        zs[lo : lo + len(both)] = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(mu * mu * zs)
        mgf, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(pairs))
    _check_mgf(mu, mgf, se)
    return mgf, se
