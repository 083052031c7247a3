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


def averaging_test(x: Observation | np.ndarray, instance: ProblemInstance) -> Decision:
    """Reject when the coordinate sum strictly exceeds mu*K/2.

    Refuses mu = 0: the rule's threshold degenerates and both error rates are
    pinned at 1/2 regardless of the data.
    """
    if instance.mu == 0.0:
        raise DegenerateParameterError("averaging test is undefined at mu = 0")
    v = as_vector(x, instance.n)
    stat = float(v.sum())
    thr = instance.mu * instance.K / 2.0
    return Decision(stat > thr, stat, thr)


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
    if not np.isfinite(emax0):
        raise ValueError("emax0 must be finite")
    v = as_vector(x, instance.n)
    stat = float(instance.set_class.max_values_batch(v[None, :], cap)[0])
    thr = (instance.mu * instance.K + emax0) / 2.0
    return Decision(stat >= thr, stat, thr)


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
    v = as_vector(x, instance.n)
    lme = float(instance.set_class.log_mean_exp_batch(instance.mu, v[None, :], cap)[0])
    return lme - instance.K * instance.mu**2 / 2.0


def optimal_test(
    x: Observation | np.ndarray,
    instance: ProblemInstance,
    cap: int | None = None,
) -> Decision:
    """Likelihood-ratio rule: reject iff log L > 0; ties accept."""
    stat = log_likelihood_ratio(x, instance, cap)
    return Decision(stat > 0.0, stat, 0.0)


def batch_rejections(
    test: str,
    instance: ProblemInstance,
    X: np.ndarray,
    emax0: float | None = None,
    cap: int | None = None,
) -> np.ndarray:
    """Vectorized decisions for a (B, n) block; one bool per row.

    Matches the scalar rules bit for bit; the Monte Carlo estimators run on
    this path.
    """
    sc = instance.set_class
    mu, K = instance.mu, instance.K
    if test == "averaging":
        if mu == 0.0:
            raise DegenerateParameterError("averaging test is undefined at mu = 0")
        return X.sum(axis=1) > mu * K / 2.0
    if test == "maximum":
        if emax0 is None:
            raise ValueError("maximum test requires emax0")
        if not np.isfinite(emax0):
            raise ValueError("emax0 must be finite")
        return sc.max_values_batch(X, cap) >= (mu * K + emax0) / 2.0
    if test == "optimal":
        return sc.log_mean_exp_batch(mu, X, cap) - K * mu**2 / 2.0 > 0.0
    raise ValueError(f"unknown test {test!r}, expected averaging, maximum or optimal")


TESTS = ("averaging", "maximum", "optimal")
