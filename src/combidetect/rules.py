"""The three decision rules: averaging, maximum (scan), and likelihood ratio.

Every rule reduces an observation to a scalar statistic and compares it to a
fixed threshold.  Thresholds never depend on the data, only on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import SetClass
from .core import DegenerateParameterError, ProblemInstance, as_vector


@dataclass(frozen=True)
class Decision:
    """Outcome of one rule on one observation."""

    reject: bool
    statistic: float
    threshold: float


def _levels(test: str, K: int, mu: float, emax0: float | None) -> tuple[float, float]:
    """(threshold, log-domain offset) of one rule at a scalar mu, refused
    where the rule refuses; the LR's rule is log_mean_exp > offset."""
    if test == "averaging":
        if mu == 0.0:
            raise DegenerateParameterError("averaging test is undefined at mu = 0")
        thr, shift = mu * K / 2.0, 0.0
    elif test == "maximum":
        if emax0 is None or not np.isfinite(emax0):
            raise ValueError("maximum test requires a finite emax0")
        thr, shift = (mu * K + emax0) / 2.0, 0.0
    elif test == "optimal":
        try:
            thr, shift = 0.0, K * mu**2 / 2.0
        except OverflowError:  # mu**2 of a float past the range raises, not inf
            thr, shift = 0.0, math.inf
    else:
        raise ValueError(f"unknown test {test!r}, expected averaging, maximum or optimal")
    # an infinite threshold decides every row alike, whatever the data
    if not np.isfinite(thr + shift):
        raise OverflowError(f"the {test} threshold at mu = {mu} is past the float range")
    return thr, shift


def _decide(
    test: str, spec: SetClass, X: np.ndarray, mu, emax0: float | None, cap: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(statistics, thresholds, rejections) of one rule on a (B, n) block at
    a scalar ``mu`` or one mu per row, or on the (B, width) block of member
    sums that ``spec``, a MemberSums, draws: each run of equal mu, in row
    order, is refused as the scalar rule refuses it or gets its threshold,
    from the class's K either way.  The scalar rules are this on one row,
    and every kernel gives a row the same bits alone as in a block.  A NaN
    statistic is refused with OverflowError."""
    mu = np.atleast_1d(mu)
    runs = np.flatnonzero(np.diff(mu, prepend=np.nan))  # the first row of each run of equal mu
    levels = [_levels(test, spec.K, m, emax0) for m in mu[runs].tolist()]
    thr, shift = np.repeat(levels, np.diff(runs, append=mu.size), axis=0).T
    with np.errstate(over="ignore", invalid="ignore"):
        # one mu goes to the kernel as a float, several as a list, which
        # perfbench's tracer can compare to 0.0 as it does a float
        if test == "optimal":
            stat = spec.log_mean_exp_batch(mu.tolist() if runs.size > 1 else mu[0], X, cap) - shift
        else:
            stat = X.sum(axis=1) if test == "averaging" else spec.max_values_batch(X, cap)
    if np.isnan(stat).any():
        at = np.broadcast_to(mu, stat.shape)[np.isnan(stat)][0]  # the first row's
        raise OverflowError(f"the {test} statistic at mu = {at} is past the float range")
    # ties reject in the maximum test and accept in the others
    return stat, thr, stat >= thr if test == "maximum" else stat > thr


def _decide_one(test, x, instance, emax0=None, cap=None) -> Decision:
    x = as_vector(x, instance.n)[None, :]
    stat, thr, rej = _decide(test, instance.set_class, x, instance.mu, emax0, cap)
    return Decision(bool(rej[0]), float(stat[0]), float(thr[0]))


def averaging_test(x: np.ndarray, instance: ProblemInstance) -> Decision:
    """Reject when the coordinate sum strictly exceeds mu*K/2.

    Refuses mu = 0: the rule's threshold degenerates and both error rates are
    pinned at 1/2 regardless of the data.
    """
    return _decide_one("averaging", x, instance)


def maximum_test(
    x: np.ndarray,
    instance: ProblemInstance,
    emax0: float,
    cap: int | None = None,
) -> Decision:
    """Reject when max_S X_S >= (mu*K + emax0)/2 (ties reject).

    ``emax0`` is a caller-supplied stand-in for the null expectation of the
    maximum; any upper bound on it is admissible.
    """
    return _decide_one("maximum", x, instance, emax0, cap)


def log_likelihood_ratio(
    x: np.ndarray,
    instance: ProblemInstance,
    cap: int | None = None,
) -> float:
    """log of the likelihood ratio of the uniform mixture over the class
    against the null, evaluated in the log domain by the class's
    ``log_mean_exp_batch`` kernel (a structured DP or elimination where the
    family has one, otherwise log-sum-exp over the enumerated members).

    mu = 0 gives exactly 0.  Where mu * X_S or K mu^2 / 2 leaves the float
    range, the ratio is refused with OverflowError, not returned as NaN.
    """
    return optimal_test(x, instance, cap).statistic


def optimal_test(
    x: np.ndarray,
    instance: ProblemInstance,
    cap: int | None = None,
) -> Decision:
    """Likelihood-ratio rule: reject iff log L > 0; ties accept."""
    return _decide_one("optimal", x, instance, cap=cap)


def batch_rejections(
    test: str,
    spec: SetClass,
    X: np.ndarray,
    mu,
    emax0: float | None = None,
    cap: int | None = None,
) -> np.ndarray:
    """Vectorized decisions for a (B, n) block at a scalar mu or one mu per
    row; one bool per row.

    The Monte Carlo estimators run on this path.
    """
    return _decide(test, spec, X, mu, emax0, cap)[2]


TESTS = ("averaging", "maximum", "optimal")
