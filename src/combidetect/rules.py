"""The three decision rules: averaging, maximum (scan), and likelihood ratio.

Every rule reduces an observation to a scalar statistic and compares it to a
fixed threshold.  Thresholds never depend on the data, only on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateParameterError, ProblemInstance, as_vector


@dataclass(frozen=True)
class Decision:
    """Outcome of one rule on one observation."""

    reject: bool
    statistic: float
    threshold: float


def _decide(
    test: str,
    instance: ProblemInstance,
    X: np.ndarray,
    emax0: float | None,
    cap: int | None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """(statistics, threshold, rejections) of one rule on a (B, n) block.

    The scalar rules are this on a block of one row.  Every kernel gives a
    row the same bits alone as in a block, so their statistics and decisions
    equal the batch's bit for bit.  A threshold past the float range, or a
    statistic that is NaN, is refused with OverflowError.
    """
    sc = instance.set_class
    mu, K = instance.mu, instance.K
    shift = 0.0  # the LR's log-domain offset: its rule is log_mean_exp > shift
    if test == "averaging":
        if mu == 0.0:
            raise DegenerateParameterError("averaging test is undefined at mu = 0")
        thr, statistic = mu * K / 2.0, lambda: X.sum(axis=1)
    elif test == "maximum":
        if emax0 is None or not np.isfinite(emax0):
            raise ValueError("maximum test requires a finite emax0")
        thr, statistic = (mu * K + emax0) / 2.0, lambda: sc.max_values_batch(X, cap)
    elif test == "optimal":
        shift = K * mu**2 / 2.0  # mu**2 past the float range raises OverflowError
        thr, statistic = 0.0, lambda: sc.log_mean_exp_batch(mu, X, cap) - shift
    else:
        raise ValueError(f"unknown test {test!r}, expected averaging, maximum or optimal")
    # an infinite threshold or a NaN statistic decides every row alike, whatever the data
    if not np.isfinite(thr + shift):
        raise OverflowError(f"the {test} threshold at mu = {mu} is past the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        stat = statistic()
    if np.isnan(stat).any():
        raise OverflowError(f"the {test} statistic at mu = {mu} is past the float range")
    # ties reject in the maximum test and accept in the others
    return stat, thr, stat >= thr if test == "maximum" else stat > thr


def _decide_one(test, x, instance, emax0=None, cap=None) -> Decision:
    stat, thr, rej = _decide(test, instance, as_vector(x, instance.n)[None, :], emax0, cap)
    return Decision(bool(rej[0]), float(stat[0]), float(thr))


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
    instance: ProblemInstance,
    X: np.ndarray,
    emax0: float | None = None,
    cap: int | None = None,
) -> np.ndarray:
    """Vectorized decisions for a (B, n) block; one bool per row.

    The Monte Carlo estimators run on this path.
    """
    return _decide(test, instance, X, emax0, cap)[2]


TESTS = ("averaging", "maximum", "optimal")
