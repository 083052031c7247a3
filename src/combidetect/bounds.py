"""Closed-form risk bounds and metric-entropy surrogates.

Thresholds are exact formula evaluations; cover sizes are greedy
surrogates in canonical member order (upper bounds on the true covering
number, valid inside every bound that consumes them).  Nothing here draws
data except the type-I cover threshold, which Monte Carlos the null maximum
over the cover it builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _output
from .classes import ExplicitClass, SetClass
from .core import DegenerateParameterError, SeededRng
from .risk import estimate_emax0

#: direction literals for BoundReport
LOWER_ON_RISK = "lower_bound_on_risk"
MU_FOR_RISK_LE = "mu_threshold_for_risk_le_delta"
MU_FOR_RISK_GE = "mu_threshold_for_risk_ge_delta"
UPPER_ON_COVER = "upper_bound_on_covering_number"
UPPER_ON_EMAX = "upper_bound_on_emax0"


@dataclass(frozen=True)
class BoundReport:
    name: str
    direction: str
    value: float
    inputs: dict
    degenerate: bool = False
    extras: dict = field(default_factory=dict)

    def render(self, fmt: str) -> str:
        """The bound as a ``combidetect.bound.v1`` document (``fmt`` is
        ``"csv"`` or ``"json"``), with its inputs as the config and every
        other field, in declaration order, as the body."""
        body = {k: v for k, v in vars(self).items() if k != "inputs"}
        return _output.render(
            fmt, "combidetect.bound.v1", self.inputs, body, config_key="inputs"
        )


def _check_delta(delta: float):
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    if not math.isfinite(2.0 / delta):  # a subnormal delta: log(2 / delta) is inf
        raise OverflowError(f"delta = {delta} is too small: 2 / delta is past the float range")


def averaging_threshold(n: int, K: int, delta: float) -> float:
    """mu above which the averaging test's risk is at most delta."""
    _check_delta(delta)
    return math.sqrt(8.0 * n / K**2 * math.log(2.0 / delta))


def max_test_threshold(emax0: float, K: int, delta: float) -> float:
    """mu above which the maximum test run with ``emax0`` has risk <= delta."""
    _check_delta(delta)
    if not np.isfinite(emax0):
        raise ValueError("emax0 must be finite")
    return emax0 / K + 2.0 * math.sqrt(2.0 / K * math.log(2.0 / delta))


def universal_threshold(K: int) -> float:
    """mu below which no test beats risk 1/2, for any class of K-sets."""
    return math.sqrt(4.0 / K * math.log(4.0 / 3.0))


def pairs_risk_lower_bound(mgf: float) -> float:
    """Optimum-risk lower bound 1 - sqrt(mgf - 1)/2 from the overlap MGF
    E exp(mu^2 |S ∩ S'|), clipped at zero."""
    if not mgf >= 1.0:
        raise ValueError("overlap MGF must be >= 1")
    return max(0.0, 1.0 - 0.5 * math.sqrt(mgf - 1.0))


def symmetric_threshold(n: int, K: int, delta: float) -> float:
    """mu below which every symmetric class of K-sets has risk >= delta."""
    _check_delta(delta)
    return math.sqrt(math.log(1.0 + 4.0 * n * (1.0 - delta) ** 2 / K) / K)


def negass_threshold(n: int, K: int, delta: float) -> float:
    """Like symmetric_threshold under negative overlap association; m-free
    for perfect matchings (n = K^2)."""
    _check_delta(delta)
    inner = 1.0 + 4.0 * (1.0 - delta) ** 2
    return math.sqrt(math.log(1.0 + n * math.log(inner) / K**2))


def clique_admissible(m: int, k: int) -> bool:
    return k <= math.sqrt(m * math.log(2.0) / math.e)


def clique_bounds(m: int, k: int, delta: float) -> tuple[float, float]:
    """(upper_mu, lower_mu) for k-cliques of K_m: risk <= delta above
    upper_mu, risk >= 1/2 below lower_mu.  Requires k <= sqrt(m log2 / e)."""
    _check_delta(delta)
    if k < 2 or k > m:
        raise ValueError("need 2 <= k <= m")
    if not clique_admissible(m, k):
        raise ValueError(
            f"clique bounds need k <= sqrt(m log2/e) = {math.sqrt(m * math.log(2.0) / math.e):.4f}, got k = {k}"
        )
    upper = 2.0 * math.sqrt(math.log(m * math.e / k) / (k - 1)) + 4.0 * math.sqrt(
        math.log(2.0 / delta) / (k * (k - 1))
    )
    lower = math.sqrt(math.log(m / (2.0 * k)) / k)
    return upper, lower


def random_subclass_bound(K: int, M: int, t: float) -> BoundReport:
    """Threshold below which the optimum risk stays >= 1/4, from a random
    M-member subclass with median minimum distance t.

    The second term of the published minimum carries a nonpositive constant
    log(sqrt(3)/8); it is evaluated verbatim, reported, and flagged
    degenerate.  The usable value is the first term, which is also the whole
    bound when t^2 = 2K (the median-zero-overlap case).  M <= 16 makes
    log(M/16) nonpositive, so there is no first term and the bound is refused.
    """
    if K < 1 or M < 2:
        raise ValueError("need K >= 1 and M >= 2")
    if not (t >= 0 and t * t <= 2 * K + 1e-9):
        raise ValueError("need 0 <= t <= sqrt(2K)")
    if M <= 16:
        raise DegenerateParameterError(
            "M <= 16 makes log(M/16) nonpositive; the random-subclass bound has no usable first term"
        )
    degenerate = False
    extras: dict = {}
    first = math.sqrt(math.log(M / 16.0) / K)
    denom_sq = K - t * t / 2.0
    if denom_sq <= 0.0:
        second = None
        extras["second_term"] = None
    else:
        second = 8.0 * math.log(math.sqrt(3.0) / 8.0) / math.sqrt(denom_sq)
        extras["second_term"] = second
        extras["verbatim_min"] = min(first, second)
        degenerate = True  # second term is negative, the verbatim minimum is vacuous
    extras["first_term"] = first
    return BoundReport(
        name="random-subclass",
        direction=MU_FOR_RISK_GE,
        value=first,
        inputs={"K": K, "M": M, "t": t},
        degenerate=degenerate,
        extras=extras,
    )


# -- covers and chaining ----------------------------------------------


def greedy_cover(spec: SetClass, radius: float, cap: int | None = None) -> list[int]:
    """Cover of the class at the given canonical radius, as ``member_matrix``
    row numbers: walk members in canonical order, keep each one not yet
    within ``radius`` of a kept member.  Size upper-bounds the true covering
    number."""
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    M = spec.member_matrix(cap)
    N, K = M.shape
    reached = np.zeros(N, dtype=bool)
    mark = np.zeros(spec.n, dtype=bool)  # the indices of the member just kept
    kept: list[int] = []
    for i in range(N):
        if reached[i]:
            continue
        kept.append(i)
        mark[M[i]] = True
        ov = np.count_nonzero(mark[M], axis=1)
        mark[M[i]] = False
        # d = sqrt(2(K - ov)) with an exact integer inside, so the correctly
        # rounded sqrt compares cleanly against a radius given as sqrt(int)
        reached |= np.sqrt(2.0 * (K - ov)) <= radius
    return kept


def dudley_bound(spec: SetClass, constant: float, cap: int | None = None) -> float:
    """Chaining bound on the null maximum: constant times the entropy
    integral of sqrt(log cover size), 64-point midpoint rule on [0, sqrt(2K)].

    The integrand vanishes beyond the class diameter (cover size 1), so the
    upper limit sqrt(2K) >= diam adds nothing.
    """
    if not constant > 0:
        raise ValueError("constant must be positive")
    points = 64
    h = math.sqrt(2.0 * spec.K) / points
    # a cover depends on its radius only through which of the K+1 possible
    # distances sqrt(2j) it reaches, so each distinct cover is built once
    distances = np.sqrt(2.0 * np.arange(spec.K + 1))
    sizes: dict[int, int] = {}
    total = 0.0
    for i in range(points):
        t = (i + 0.5) * h
        reached = int(np.count_nonzero(distances <= t))
        if reached not in sizes:
            sizes[reached] = len(greedy_cover(spec, t, cap))
        total += math.sqrt(math.log(sizes[reached])) * h
    if not math.isfinite(constant * total):
        raise OverflowError(f"the dudley bound with constant {constant} is past the float range")
    return constant * total


def vc_cover_bound(n: int, V: int, t: float) -> float:
    """Uniform cover-size bound e (V+1) (2 e n / t^2)^V for a class of
    VC dimension V in the canonical metric; OverflowError past the float
    range, t**2 underflowing to 0 included."""
    if V < 1:
        raise ValueError("V must be >= 1")
    if not t > 0:
        raise ValueError("t must be positive")
    try:
        value = math.e * (V + 1) * (2.0 * math.e * n / t**2) ** V
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"the vc-cover bound at n = {n}, V = {V}, t = {t} is past the float range")
    return value


def _universal(K):
    return universal_threshold(K), {"delta": 0.5}


def _cliques(m, k, delta):
    upper, lower = clique_bounds(m, k, delta)
    return upper, {"lower_mu": lower, "lower_delta": 0.5}


class _Prop(NamedTuple):
    inputs: tuple[str, ...]
    direction: str | None = None
    # the closed form: the inputs in order to a value, or a value and extras
    formula: Callable | None = None


#: every proposition of ``evaluate_bound`` with the inputs it reads from
#: ``params``; the last three are built by their own functions
_PROPOSITIONS = {
    "averaging": _Prop(("n", "K", "delta"), MU_FOR_RISK_LE, averaging_threshold),
    "maxtest": _Prop(("emax0", "K", "delta"), MU_FOR_RISK_LE, max_test_threshold),
    "universal": _Prop(("K",), MU_FOR_RISK_GE, _universal),
    "pairs": _Prop(("mgf",), LOWER_ON_RISK, pairs_risk_lower_bound),
    "symmetric": _Prop(("n", "K", "delta"), MU_FOR_RISK_GE, symmetric_threshold),
    "negass": _Prop(("n", "K", "delta"), MU_FOR_RISK_GE, negass_threshold),
    "cliques": _Prop(("m", "k", "delta"), MU_FOR_RISK_LE, _cliques),
    "random-subclass": _Prop(("K", "M", "t")),
    "vc-cover": _Prop(("n", "V", "t"), UPPER_ON_COVER, vc_cover_bound),
    "dudley": _Prop(("constant",)),
    "type1-cover": _Prop(("delta",)),
}

PROPS = tuple(_PROPOSITIONS)


def evaluate_bound(
    prop: str,
    params: dict,
    *,
    spec: SetClass | None = None,
    rng: SeededRng | None = None,
    trials: int = 10_000,
    cap: int | None = None,
    workers: int = 1,
) -> BoundReport:
    """Uniform entry point for the named closed-form bounds.

    ``params`` carries the scalar inputs each proposition needs, and may
    carry others, which are ignored; ``spec`` (and for type1-cover ``rng``)
    only matter for the class-dependent ones.
    """
    if prop not in _PROPOSITIONS:
        raise ValueError(f"unknown proposition {prop!r}")
    entry = _PROPOSITIONS[prop]
    missing = [k for k in entry.inputs if k not in params]
    if missing:
        raise ValueError(f"{prop} needs parameters: {', '.join(missing)}")
    inputs = {k: params[k] for k in entry.inputs}
    for k in ("n", "K"):  # the closed forms divide by K or take logs of n
        if k in inputs and not inputs[k] >= 1:
            raise ValueError(f"{prop} needs {k} >= 1, got {inputs[k]}")
    if prop == "random-subclass":
        return random_subclass_bound(*inputs.values())
    if prop == "dudley":
        if spec is None:
            raise ValueError("dudley needs a set class")
        value = dudley_bound(spec, inputs["constant"], cap)
        return BoundReport(prop, UPPER_ON_EMAX, value, inputs={"class": spec.to_params()} | inputs)
    if prop == "type1-cover":
        if spec is None or rng is None:
            raise ValueError("type1-cover needs a set class and a seed")
        return type1_bound_threshold(spec, inputs["delta"], trials, rng, cap=cap, workers=workers)
    out = entry.formula(*inputs.values())
    value, extras = out if isinstance(out, tuple) else (out, {})
    return BoundReport(prop, entry.direction, value, inputs=inputs, extras=extras)


def type1_bound_threshold(
    spec: SetClass,
    delta: float,
    trials: int,
    rng: SeededRng,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> BoundReport:
    """mu above which the likelihood-ratio rule's type-I error is <= delta,
    via a sqrt(K)/2-cover of the class.

    The null maximum over the cover is Monte Carlo estimated with ``trials``
    draws; the Sudakov-style cap 2 sqrt(2 K log |A|)/K is reported for
    context."""
    _check_delta(delta)
    K = spec.K
    cover = greedy_cover(spec, math.sqrt(K) / 2.0, cap)
    cover_class = ExplicitClass(spec.n, spec.member_matrix(cap)[cover])
    est = estimate_emax0(cover_class, trials, rng, cap=cap, workers=workers)
    value = 2.0 / K * est.emax + math.sqrt(32.0 * math.log(2.0 / delta) / K)
    size = len(cover)
    sudakov = 2.0 * math.sqrt(2.0 * K * math.log(size)) / K if size > 1 else 0.0
    return BoundReport(
        name="type1-cover",
        direction=MU_FOR_RISK_LE,
        value=value,
        inputs={
            "class": spec.to_params(),
            "delta": delta,
            "trials": trials,
            "seed": rng.master_seed,
        },
        extras={
            "controls": "type1 only",
            "cover_size": size,
            "emax_cover": est.emax,
            "emax_cover_se": est.std_error,
            "sudakov_cap": sudakov,
        },
    )
