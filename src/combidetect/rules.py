"""The three decision rules: averaging, maximum (scan), and likelihood ratio.

Every rule reduces an observation to a scalar statistic and compares it to a
fixed threshold.  Thresholds never depend on the data, only on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateParameterError, Observation, ProblemInstance, as_vector


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

    The scalar rules are this on a block of one row, and their statistics
    and decisions equal the batch's, except for the enumerated likelihood
    ratio (``SetClass.log_mean_exp_batch``): its log-sum-exp adds a lone
    row's terms in another order than a block's, so the statistic may differ
    in its last bits.
    """
    sc = instance.set_class
    mu, K = instance.mu, instance.K
    if test == "averaging":
        if mu == 0.0:
            raise DegenerateParameterError("averaging test is undefined at mu = 0")
        stat, thr = X.sum(axis=1), mu * K / 2.0
        return stat, thr, stat > thr
    if test == "maximum":
        if emax0 is None or not np.isfinite(emax0):
            raise ValueError("maximum test requires a finite emax0")
        stat, thr = sc.max_values_batch(X, cap), (mu * K + emax0) / 2.0
        return stat, thr, stat >= thr  # ties reject
    if test == "optimal":
        stat = sc.log_mean_exp_batch(mu, X, cap) - K * mu**2 / 2.0
        return stat, 0.0, stat > 0.0  # ties accept
    raise ValueError(f"unknown test {test!r}, expected averaging, maximum or optimal")


def _decide_one(test, x, instance, emax0=None, cap=None) -> Decision:
    stat, thr, rej = _decide(test, instance, as_vector(x, instance.n)[None, :], emax0, cap)
    return Decision(bool(rej[0]), float(stat[0]), float(thr))


def averaging_test(x: Observation | np.ndarray, instance: ProblemInstance) -> Decision:
    """Reject when the coordinate sum strictly exceeds mu*K/2.

    Refuses mu = 0: the rule's threshold degenerates and both error rates are
    pinned at 1/2 regardless of the data.
    """
    return _decide_one("averaging", x, instance)


def maximum_test(
    x: Observation | np.ndarray,
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
    x: Observation | np.ndarray,
    instance: ProblemInstance,
    cap: int | None = None,
) -> float:
    """log of the likelihood ratio of the uniform mixture over the class
    against the null, evaluated in the log domain by the class's
    ``log_mean_exp_batch`` kernel (a structured DP or elimination where the
    family has one, otherwise log-sum-exp over the enumerated members).

    Finite for any finite input; mu = 0 gives exactly 0.
    """
    return optimal_test(x, instance, cap).statistic


def optimal_test(
    x: Observation | np.ndarray,
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
