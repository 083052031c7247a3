"""Monte Carlo risk estimation.

Risk of a test = P(reject | null) + mean over members of P(accept | member),
estimated by independent trials.  The trials of each (point, arm) segment
form groups of G = _chunk_size(n) consecutive trials, G fixed by the config:
trial t is row t % G of group t // G, whose normals come from one generator
on the substream (master_seed, *stream, [point,] arm, group, 0), in one call
or one per slice that cuts the group, and whose mixture member codes come
from (..., group, 1) in one call.  A row's normals are X,
or, where the test reads X only through member sums whose law is closed-form
(``SetClass.member_sums``), the far fewer normals of those sums: one for the
averaging sum, which then needs no member codes, m + 1 for the m star sums
and N for N disjoint blocks.  Both fill their rows in order,
so the first k trials of a call do not depend on how many follow, and results
are byte-identical for a given (seed, config) regardless of slicing or
worker count.  A call lays its segments end to end, each row at its point's
mu, and splits their groups whole into contiguous shares, one per process;
a share is drawn and decided in slices of at most _CACHE_FLOATS drawn normals,
which may straddle arms and points, a group cut by a slice bound drawing on
from its own generators.  Per-trial values are laid end to end in index order
and reduced once.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._output import render
from .classes import _CACHE_FLOATS, ExplicitClass, MemberSums, SetClass
from .core import AsymmetricClassError, ProblemInstance, SeededRng, checked_mu
from .rules import _decide, _levels, batch_rejections

_NULL_ARM = 0
_MIXTURE_ARM = 1


@dataclass(frozen=True)
class RiskEstimate:
    type1: float
    se_type1: float
    type2: float
    se_type2: float
    total: float
    se_total: float
    trials: int

    @classmethod
    def from_counts(cls, rejects_null: int, accepts_mixture: int, trials: int) -> "RiskEstimate":
        t1 = rejects_null / trials
        t2 = accepts_mixture / trials
        se1 = math.sqrt(t1 * (1 - t1) / trials)
        se2 = math.sqrt(t2 * (1 - t2) / trials)
        return cls(t1, se1, t2, se2, t1 + t2, math.sqrt(se1**2 + se2**2), trials)

    def rates(self) -> dict:
        """The error rates and their standard errors, keyed as in every
        document."""
        return {
            "type1": self.type1, "se1": self.se_type1,
            "type2": self.type2, "se2": self.se_type2,
            "total": self.total, "se_total": self.se_total,
        }


@dataclass(frozen=True)
class RiskCurve:
    mu_grid: tuple[float, ...]
    estimates: tuple[RiskEstimate, ...]
    critical_mu: float | None


class EmaxEstimate(NamedTuple):
    emax: float
    std_error: float
    gaussian_cap: float


def emax_upper_cap(spec: SetClass) -> float:
    """sqrt(2 K log N): always an admissible stand-in for the null maximum."""
    return math.sqrt(2.0 * spec.K * math.log(spec.cardinality()))


def _chunk_size(n: int) -> int:
    # the trials of a group; it depends on the config only, so a row's bits
    # depend on its group's address only
    return max(1, min(1024, 2_000_000 // max(1, n)))


def _draw_block(
    spec: SetClass | MemberSums, segments: tuple, lo: int, hi: int, rng: SeededRng, trials: int,
    live: list,
) -> tuple[np.ndarray, np.ndarray]:
    # (block, mu) of rows lo..hi of the segments' trials end to end: row j is
    # trial t = j % trials of segment (keys, mu) j // trials, keys ending in its
    # arm, and row t % G of its group t // G.  The block is X for a class, and
    # the member sums for a MemberSums.  Each group draws its spec.draws normals
    # a row from rng.generator(*keys, t // G, 0), and at its first row all its
    # member codes from (..., 1); the slice's mixture rows are shifted by their
    # mu at once.  lo lies on a group bound, or in the group that live carries
    # from the slice before as [first row, end, normals generator, codes or
    # None]; live then carries this slice's last group
    G = _chunk_size(spec.n)
    keys, mus = segments
    Z = np.empty((hi - lo, spec.draws))
    codes = []
    group = live if live and live[0] <= lo < live[1] else None
    start = lo
    while start < hi:
        if group is None or start == group[1]:
            s, t = divmod(start, trials)
            end = min(start + G, (s + 1) * trials)
            address = (*keys[s].tolist(), t // G)
            group = [start, end, rng.generator(*address, 0), None]
            if keys[s, -1] == _MIXTURE_ARM and spec.coded:
                group[3] = spec._codes(rng.generator(*address, 1), end - start)
        first, end, normals, group_codes = group
        stop = min(hi, end)
        normals.standard_normal(out=Z[start - lo : stop - lo])
        if group_codes is not None:
            codes.append(group_codes[start - first : stop - first])
        start = stop
    live[:] = group
    segment = np.arange(lo, hi) // trials
    mu = mus[segment]
    # the mixture rows, which drew codes unless the spec draws none
    mixture = np.flatnonzero(keys[segment, -1] == _MIXTURE_ARM)
    # concatenate copies the carried codes, which _members may write over
    return spec._observe(Z, mixture, np.concatenate(codes) if codes else None, mu[mixture]), mu


def _share_values(value_fn: Callable, spec: SetClass | MemberSums, segments, trials, rng, share):
    # value_fn over the rows lo..hi of one share, drawn and decided in slices of
    # at most _CACHE_FLOATS drawn normals
    lo, hi = share
    step = max(1, _CACHE_FLOATS // spec.draws)
    live = []
    slices = [(a, min(a + step, hi)) for a in range(lo, hi, step)]
    return np.concatenate([value_fn(*_draw_block(spec, segments, *b, rng, trials, live)) for b in slices])


#: normals (rows x drawn width) a call draws before it fans out.  Median call
#: times on a 2-core host, workers=1 against a split over two processes: cheap
#: kernels lose below it (DisjointSets(2,1) optimal 0.79 -> 1.02 ms at 16,384;
#: KSets(100,10) maximum 0.54 -> 0.55 ms at 30,000, but 1.00 -> 0.88 at
#: 60,000), and every call measured gains above it (SpanningTrees(12) maximum
#: scan 3.68 -> 2.16 ms at 88,704; Stars(50) maximum, 51 normals a row,
#: 1.10 -> 0.91 ms at 71,400 and 3.18 -> 2.26 ms at 208,896).
_FAN_OUT_OBS = 2**16

#: the worker pool by its process count, dropped at exit while its finalizer's modules remain
_pools: dict = {}
atexit.register(_pools.clear)


def _pool_size(workers: int) -> int:
    # the processes of a fan-out, the caller's included
    return max(1, min(int(workers), os.cpu_count() or 1))


def _set_blas_threads(count: int) -> int | None:
    # numpy's bundled OpenBLAS runs count threads from here on; the previous
    # count, or None on builds without OpenBLAS thread control
    import ctypes
    try:
        blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    previous = get()
    put(count)
    return previous


def _exit_with_parent():
    # each worker ends once the pool's parent process is gone, even when a
    # signal ended the parent before it could stop the pool; its BLAS runs
    # one thread, so the kernels of a fan-out do not oversubscribe the cores
    import threading
    from multiprocessing import connection, parent_process

    parent = parent_process().sentinel
    threading.Thread(target=lambda: (connection.wait([parent]), os._exit(1)), daemon=True).start()
    _set_blas_threads(1)


def _worker_pool(processes: int):
    if processes not in _pools:
        import multiprocessing  # here, so importing the package loads neither
        from concurrent.futures import ProcessPoolExecutor
        while _pools:
            _pools.popitem()[1].shutdown()
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        _pools[processes] = ProcessPoolExecutor(
            processes, multiprocessing.get_context(method), initializer=_exit_with_parent
        )
    return _pools[processes]


def _per_trial_values(
    value_fn: Callable, spec: SetClass | MemberSums, segments: Sequence, trials: int, rng: SeededRng,
    workers: int,
) -> np.ndarray:
    # a (len(segments), trials) array of value_fn(rows, mu) over each segment's
    # trials, the rows of X for a class and of the member sums for a MemberSums
    if trials < 1:
        raise ValueError("trials must be >= 1")
    segments = (np.array([keys for keys, _ in segments]), np.array([mu for _, mu in segments]))
    rows = len(segments[1]) * trials
    if not rows:
        return np.empty((0, trials))
    # the processes a call of enough work splits over
    size = _pool_size(workers) if rows * spec.draws >= _FAN_OUT_OBS else 1
    # whole groups in at most size contiguous shares, each group by its
    # midpoint; the caller takes the first
    chunk = _chunk_size(spec.n)
    starts = [s + t for s in range(0, rows, trials) for t in range(0, trials, chunk)]
    first = {}
    for start, end in zip(starts, starts[1:] + [rows]):
        first.setdefault((start + end) * size // (2 * rows), start)
    los = list(first.values())
    shares = list(zip(los, los[1:] + [rows]))
    values = partial(_share_values, value_fn, spec, segments, trials, rng)
    if len(shares) == 1:
        return values(shares[0]).reshape(-1, trials)
    from concurrent.futures.process import BrokenProcessPool
    try:
        futures = [_worker_pool(size - 1).submit(values, share) for share in shares[1:]]
        previous = _set_blas_threads(1)  # the workers' cores are busy
        try:
            parts = [values(shares[0])]
        finally:
            if previous is not None:
                _set_blas_threads(previous)
        parts += [future.result() for future in futures]
    except BrokenProcessPool:
        del _pools[size - 1]  # so the next call forks a fresh pool
        raise
    return np.concatenate(parts).reshape(-1, trials)


def _drawn(spec: SetClass, test: str) -> SetClass | MemberSums:
    # what a trial of test draws: the member sums where their law is closed-form, else X
    return spec.member_sums(test) or spec


def _risk(
    decide: Callable, spec: SetClass | MemberSums, points: list, trials: int, rng: SeededRng, workers: int
):
    # a RiskEstimate per point (keys, mu); its arm a draws from rng.child(*keys, a)
    segments = [((*keys, arm), mu) for keys, mu in points for arm in (_NULL_ARM, _MIXTURE_ARM)]
    rej = _per_trial_values(decide, spec, segments, trials, rng, workers)
    return [
        RiskEstimate.from_counts(int(np.count_nonzero(null)), trials - int(np.count_nonzero(mix)), trials)
        for null, mix in rej.reshape(-1, 2, trials)
    ]


def estimate_risk(
    test: str,
    instance: ProblemInstance,
    trials: int,
    rng: SeededRng,
    *,
    emax0: float | None = None,
    cap: int | None = None,
    workers: int = 1,
) -> RiskEstimate:
    """Monte Carlo risk of one rule: ``trials`` null draws for the type-I
    rate, ``trials`` mixture draws (uniform member, then the shifted vector)
    for the type-II rate."""
    spec = _drawn(instance.set_class, test)
    decide = partial(batch_rejections, test, spec, emax0=emax0, cap=cap)
    return _risk(decide, spec, [((), instance.mu)], trials, rng, workers)[0]


def risk_at(
    test: str, spec: SetClass, mus: Sequence[float], trials: int, rng: SeededRng, *,
    emax0: float | None = None, cap: int | None = None, workers: int = 1,
) -> list[RiskEstimate]:
    """``estimate_risk`` at each mu of ``mus``, point i drawn from rng.child(i), in shared slices."""
    points = [((i,), checked_mu(mu)) for i, mu in enumerate(mus)]
    _levels(test, spec.K, np.array([mu for _, mu in points]), emax0)  # the first refused point, before any draw
    spec = _drawn(spec, test)
    decide = partial(batch_rejections, test, spec, emax0=emax0, cap=cap)
    return _risk(decide, spec, points, trials, rng, workers)


# per-trial value functions of (rows, mu), bound with partial so a worker process can unpickle them
def _lr_values(
    rho: bool, spec: SetClass | MemberSums, cap: int | None, X: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    # sqrt(L) / 2 for the Bhattacharyya coefficient rho, else 1 - |L - 1| / 2,
    # from the rule's own log L, refused where the rule refuses
    loglik = _decide("optimal", spec, X, mu, None, cap)[0]
    return 0.5 * np.exp(0.5 * loglik) if rho else 1.0 - 0.5 * np.abs(np.expm1(loglik))


def _max_values(spec: SetClass | MemberSums, cap: int | None, X: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return spec.max_values_batch(X, cap)


def _witness_rejections(K: int, X: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # averaging over the shared block only, ties rejecting
    return X[:, :K].sum(axis=1) >= mu * K / 2.0


def _null_mean(
    values: Callable, spec: SetClass | MemberSums, mu: float, trials: int, rng: SeededRng, workers: int
) -> tuple[float, float]:
    # (mean, std_error) of the per-trial values over null draws at mu
    if trials < 2:
        raise ValueError("trials must be >= 2")
    (v,) = _per_trial_values(values, spec, [((_NULL_ARM,), mu)], trials, rng, workers)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def estimate_bayes_risk(
    instance: ProblemInstance,
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> tuple[float, float]:
    """(estimate, std_error) of the optimum risk 1 - E|L - 1|/2 from null
    draws only.  Sharp near mu = 0; the per-trial variance blows up for
    large mu."""
    spec = _drawn(instance.set_class, "optimal")
    return _null_mean(partial(_lr_values, False, spec, cap), spec, instance.mu, trials, rng, workers)


def estimate_bhattacharyya(
    instance: ProblemInstance,
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> tuple[float, float]:
    """(estimate, std_error) of rho = E sqrt(L)/2 from null draws."""
    spec = _drawn(instance.set_class, "optimal")
    return _null_mean(partial(_lr_values, True, spec, cap), spec, instance.mu, trials, rng, workers)


def estimate_emax0(
    spec: SetClass,
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> EmaxEstimate:
    """Null expectation of max_S X_S, with the analytic cap sqrt(2 K log N)
    reported alongside."""
    drawn = _drawn(spec, "maximum")
    mean, se = _null_mean(partial(_max_values, drawn, cap), drawn, 0.0, trials, rng, workers)
    return EmaxEstimate(mean, se, emax_upper_cap(spec))


def _interpolate_half(mu_grid: Sequence[float], totals: Sequence[float]) -> float | None:
    # first grid interval where the total crosses 1/2 from above, linear interp
    for i in range(len(mu_grid) - 1):
        a, b = totals[i], totals[i + 1]
        if a >= 0.5 >= b:
            if a == b:
                return float(mu_grid[i])
            frac = (a - 0.5) / (a - b)
            return float(mu_grid[i] + frac * (mu_grid[i + 1] - mu_grid[i]))
    return None


def scan_critical_mu(
    spec: SetClass,
    test: str,
    mu_grid: Sequence[float],
    trials: int,
    rng: SeededRng,
    *,
    emax0: float | None = None,
    cap: int | None = None,
    workers: int = 1,
) -> RiskCurve:
    """Risk at every grid point (one fresh substream per point), plus the
    interpolated mu where the total first crosses 1/2."""
    grid = [float(m) for m in mu_grid]
    if len(grid) < 1:
        raise ValueError("mu_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("mu_grid must be strictly increasing")
    if test == "maximum" and emax0 is None:
        emax0 = emax_upper_cap(spec)
    estimates = risk_at(test, spec, grid, trials, rng, emax0=emax0, cap=cap, workers=workers)
    crit = _interpolate_half(grid, [e.total for e in estimates])
    return RiskCurve(tuple(grid), tuple(estimates), crit)


# -- subclass comparisons -------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    mu_grid: tuple[float, ...]
    class_size: int
    subclass_size: int
    subclass_risk: tuple[RiskEstimate, ...]
    class_risk: tuple[RiskEstimate, ...]
    violated: tuple[bool, ...]

    @property
    def any_violation(self) -> bool:
        return any(self.violated)


def monotonicity_check(
    spec: SetClass,
    subclass_fraction: float,
    mu_grid: Sequence[float],
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> MonotonicityReport:
    """Estimate the optimum risk of a uniformly drawn subclass against the
    full class at every grid point.

    Only symmetric families are accepted: for them, the subclass optimum risk
    can never exceed the full-class optimum risk, so a violation beyond
    3 combined standard errors flags an implementation fault.
    """
    if not spec.is_symmetric:
        raise AsymmetricClassError(
            f"{spec!r} is not a symmetric family; the subclass risk ordering is not guaranteed"
        )
    if not 0.0 < subclass_fraction <= 1.0:
        raise ValueError("subclass_fraction must be in (0, 1]")
    N = spec.cardinality()
    M = spec.member_matrix(cap)  # enumerability gate
    size = max(1, round(subclass_fraction * N))
    ranks = np.sort(rng.generator(0).choice(int(N), size=size, replace=False))
    sub = ExplicitClass(spec.n, M[ranks])

    grid = [float(m) for m in mu_grid]
    # point i of each class draws from rng.child(1, i) and rng.child(2, i)
    sub_est = risk_at("optimal", sub, grid, trials, rng.child(1), cap=cap, workers=workers)
    full_est = risk_at("optimal", spec, grid, trials, rng.child(2), cap=cap, workers=workers)
    violated = [
        ra.total > rc.total + 3.0 * math.sqrt(ra.se_total**2 + rc.se_total**2)
        for ra, rc in zip(sub_est, full_est)
    ]
    return MonotonicityReport(
        tuple(grid), int(N), size, tuple(sub_est), tuple(full_est), tuple(violated)
    )


@dataclass(frozen=True)
class NonmonotonicityReport:
    K: int
    epsilon: float
    mu: float
    n: int
    risk_disjoint: RiskEstimate
    risk_union: RiskEstimate
    risk_witness_averaging: RiskEstimate
    gap: float
    gap_se: float
    side_condition_holds: bool
    side_condition_lhs: float
    side_condition_rhs: float


def _shifted_partition(K: int) -> np.ndarray:
    # K+1 cyclic blocks of K+1 consecutive residues mod n, block j starting
    # at j(K+1)+1; for K >= 2 no block contains {0..K-1}, so the blocks
    # avoid the witness family entirely
    n = (K + 1) ** 2
    return (np.arange(n).reshape(K + 1, K + 1) + 1) % n


def nonmonotonicity_demo(
    K: int,
    epsilon: float,
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> NonmonotonicityReport:
    """Subclass whose optimum risk exceeds the full class's.

    The subclass A is a disjoint family of K+1 sets of size K+1 on
    n = (K+1)^2 coordinates; the full class adds every set {1..K, i}.  Those
    added sets share the fixed block {1..K}, which a K-coordinate averaging
    rule detects, so enlarging the class can only help -- while A alone stays
    hard at mu = sqrt(log(4 (K+1) eps^2) / (K+1)).
    """
    if K < 2:
        raise ValueError("K must be >= 2 (no disjoint family avoids the witness sets at K = 1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    arg = 4.0 * (K + 1) * epsilon**2
    if arg <= 1.0:
        raise ValueError("4 (K+1) epsilon^2 must exceed 1 for a positive mu")
    n = (K + 1) ** 2
    mu = math.sqrt(math.log(arg) / (K + 1))

    blocks = _shifted_partition(K)
    # the witness sets {0..K-1, i}, one per i >= K
    witness = np.column_stack([np.tile(np.arange(K), (n - K, 1)), np.arange(K, n)])
    assert np.all((blocks < K).sum(axis=1) < K)

    sub = ExplicitClass(n, blocks)
    full = ExplicitClass(n, np.vstack([blocks, witness]))

    risk_a = estimate_risk(
        "optimal", ProblemInstance(sub, mu), trials, rng.child(0), cap=cap, workers=workers
    )
    risk_c = estimate_risk(
        "optimal", ProblemInstance(full, mu), trials, rng.child(1), cap=cap, workers=workers
    )

    witness_decide = partial(_witness_rejections, K)
    (risk_w,) = _risk(witness_decide, ExplicitClass(n, witness), [((), mu)], trials, rng.child(2), workers)

    side_rhs = math.sqrt(8.0 / K * math.log(2.0 / epsilon))
    return NonmonotonicityReport(
        K=K,
        epsilon=float(epsilon),
        mu=mu,
        n=n,
        risk_disjoint=risk_a,
        risk_union=risk_c,
        risk_witness_averaging=risk_w,
        gap=risk_a.total - risk_c.total,
        gap_se=math.sqrt(risk_a.se_total**2 + risk_c.se_total**2),
        side_condition_holds=mu >= side_rhs,
        side_condition_lhs=mu,
        side_condition_rhs=side_rhs,
    )


# -- serialization --------------------------------------------------------

def render_risk_rows(
    fmt: str,
    rows: Sequence[tuple[float, RiskEstimate]],
    config: dict,
    schema: str,
    critical_mu: float | None = ...,
) -> str:
    """One risk row per mu, as a CSV table or a JSON ``results`` list.

    A given ``critical_mu`` (None when the curve never crosses 1/2) adds a
    ``#critical_mu=`` CSV footer, ``none`` for None, and a JSON key.
    """
    results = [{"mu": mu} | e.rates() | {"trials": e.trials} for mu, e in rows]
    table = (tuple(results[0]), [tuple(r.values()) for r in results])
    body = {"results": results}
    footer = None
    if critical_mu is not ...:
        body["critical_mu"] = critical_mu
        footer = {"critical_mu": "none" if critical_mu is None else critical_mu}
    return render(fmt, schema, config, body, table=table, footer=footer)


def render_curve(fmt: str, curve: RiskCurve, config: dict) -> str:
    """A scan's risk rows and crossing as a ``combidetect.scan.v1`` document."""
    rows = list(zip(curve.mu_grid, curve.estimates))
    return render_risk_rows(fmt, rows, config, "combidetect.scan.v1", curve.critical_mu)
