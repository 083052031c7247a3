"""The three decision rules: averaging, maximum (scan), and likelihood ratio.

Every rule reduces an observation to a scalar statistic and compares it to a
fixed threshold.  Thresholds never depend on the data, only on the instance.
"""

from __future__ import annotations

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


def _levels(test: str, K: int, mu: np.ndarray, emax0: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, log-domain offsets) of one rule at each entry of a mu
    array, refused at the first entry the rule refuses; the LR's rule is
    log_mean_exp > offset.  ``float_power`` squares by the C pow, as a
    float's ``**`` does, so the offsets keep the bits of the scalar rule."""
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}, expected averaging, maximum or optimal")
    if test == "maximum" and (emax0 is None or not np.isfinite(emax0)):
        raise ValueError("maximum test requires a finite emax0")
    zero = np.zeros(mu.shape)
    with np.errstate(over="ignore"):
        if test == "averaging":
            thr, shift = mu * K / 2.0, zero
        elif test == "maximum":
            thr, shift = (mu * K + emax0) / 2.0, zero
        else:
            thr, shift = zero, K * np.float_power(mu, 2) / 2.0
    # an infinite threshold decides every row alike, whatever the data
    refused = ~np.isfinite(thr + shift)
    if test == "averaging":
        refused |= mu == 0.0
    if refused.any():
        at = float(mu[refused][0])
        if at == 0.0 and test == "averaging":
            raise DegenerateParameterError("averaging test is undefined at mu = 0")
        raise OverflowError(f"the {test} threshold at mu = {at} is past the float range")
    return thr, shift


def _decide(
    test: str, spec: SetClass, X: np.ndarray, mu, emax0: float | None, cap: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(statistics, thresholds, rejections) of one rule on a (B, n) block at
    a scalar ``mu`` or one mu per row, or on the (B, width) block of member
    sums that ``spec``, a MemberSums, draws: the block's mu are refused as
    the scalar rule refuses them or get their thresholds in one pass, from
    the class's K either way.  The scalar rules are this on one row, and
    every kernel gives a row the same bits alone as in a block.  A NaN
    statistic is refused with OverflowError."""
    mu = np.atleast_1d(mu)
    thr, shift = _levels(test, spec.K, mu, emax0)
    with np.errstate(over="ignore", invalid="ignore"):
        # one mu goes to the kernel as a float, several as a list, which
        # perfbench's tracer can compare to 0.0 as it does a float
        if test == "optimal":
            one = mu.size and (mu == mu[0]).all()
            stat = spec.log_mean_exp_batch(mu[0] if one else mu.tolist(), X, cap) - shift
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
