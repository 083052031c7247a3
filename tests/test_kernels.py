"""Structured kernels against the enumeration path they replace.

``PerfectMatchings`` evaluates both batch hooks by a subset DP over column
masks, and ``SpanningTrees`` evaluates the likelihood ratio by a log-domain
matrix-tree elimination.  Enumeration (``SetClass``'s generic hooks over
``member_matrix``) and a 50-digit ``mpmath`` sum are the references; the
Hungarian solver is the reference for the matchings maximum, bit for bit.
"""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combidetect import ProblemInstance, SeededRng, estimate_bayes_risk, estimate_risk
from combidetect import classes
from combidetect._assignment import assignment_value
from combidetect.classes import PerfectMatchings, SetClass, SpanningTrees
from combidetect.cli import main
from combidetect.core import CapExceededError

FAMILIES = {"matchings": PerfectMatchings, "trees": SpanningTrees}


@functools.cache
def spec_of(family: str, m: int) -> SetClass:
    spec = FAMILIES[family](m)
    spec.member_matrix()  # build the enumeration reference once
    return spec


def enumerated_log_mean_exp(spec: SetClass, mu: float, X: np.ndarray) -> np.ndarray:
    t = mu * X[:, spec.member_matrix()].sum(axis=2)
    top = t.max(axis=1)
    return top + np.log(np.exp(t - top[:, None]).sum(axis=1)) - math.log(spec.cardinality())


def kernel_log_mean_exp(spec: SetClass, mu: float, X: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spec.log_mean_exp_batch(mu, X)
    assert np.all(np.isfinite(got))
    return got


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    m=st.integers(2, 7),
    mu=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.01, 1.0, 4.0]),
)
def test_log_mean_exp_matches_enumeration(family, m, mu, seed, scale):
    spec = spec_of(family, m)
    X = scale * np.random.default_rng(seed).standard_normal((4, spec.n))
    got = kernel_log_mean_exp(spec, mu, X)
    np.testing.assert_allclose(got, enumerated_log_mean_exp(spec, mu, X), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("family,m", [("trees", 5), ("matchings", 4)])
def test_log_mean_exp_matches_50_digit_reference(family, m):
    spec = spec_of(family, m)
    members = spec.member_matrix()
    gen = np.random.default_rng(3437)
    worst = 0.0
    for mu in (0.01, 0.5, 2.0, 10.0, 25.0, 50.0):
        X = gen.standard_normal((5, spec.n))
        got = kernel_log_mean_exp(spec, mu, X)
        for x, value in zip(X, got):
            with mpmath.workdps(50):
                sums = [mpmath.fsum(mpmath.mpf(x[e]) for e in row) for row in members]
                terms = [mpmath.exp(mpmath.mpf(mu) * v) for v in sums]
                ref = float(mpmath.log(mpmath.fsum(terms) / len(terms)))
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12


@pytest.mark.parametrize("m", [*range(2, 9), 10, classes._MAX_DP_M])
def test_matchings_max_is_bitwise_the_assignment_value(m):
    spec = PerfectMatchings(m)
    gen = np.random.default_rng(100 + m)
    rows = 10_000 if m <= 8 else 300  # the solver takes about 1 ms per row at m = 12
    X = np.concatenate([
        gen.standard_normal((rows, spec.n)),
        # integer weights tie many permutations; every optimum has the same sum
        gen.integers(-2, 3, size=(rows // 50, spec.n)).astype(np.float64),
    ])
    ref = np.array([assignment_value(row.reshape(m, m)) for row in X])
    assert np.array_equal(spec.max_values_batch(X), ref)


@pytest.mark.parametrize("m", [2, 5, 7])
def test_matchings_max_matches_enumeration(m):
    spec = spec_of("matchings", m)
    X = np.random.default_rng(m).standard_normal((300, spec.n))
    np.testing.assert_allclose(spec.max_values_batch(X), SetClass.max_values_batch(spec, X), rtol=0, atol=1e-12)


def test_row_sub_blocks_do_not_change_values(monkeypatch):
    X = np.random.default_rng(9).standard_normal((37, 49))
    pm, st7 = PerfectMatchings(7), SpanningTrees(7)
    X_tree = X[:, : st7.n]
    whole = (pm.max_values_batch(X), pm.log_mean_exp_batch(1.3, X), st7.log_mean_exp_batch(1.3, X_tree))
    monkeypatch.setattr(classes, "_BLOCK_BUDGET", 1000)  # a few rows per sub-block
    monkeypatch.setattr(classes, "_DP_BLOCK_BUDGET", 1000)
    split = (pm.max_values_batch(X), pm.log_mean_exp_batch(1.3, X), st7.log_mean_exp_batch(1.3, X_tree))
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("x", [-0.7, 0.0, 1.25])
def test_constant_weights_beyond_enumeration(x):
    mu = 2.0
    pm, st30 = PerfectMatchings(12), SpanningTrees(30)
    for spec in (pm, st30):
        with pytest.raises(CapExceededError):
            spec.member_matrix()
        X = np.full((3, spec.n), x)
        np.testing.assert_allclose(kernel_log_mean_exp(spec, mu, X), mu * spec.K * x, rtol=1e-12, atol=1e-12)
    assert np.allclose(pm.max_values_batch(np.full((2, pm.n), x)), pm.K * x, rtol=1e-12, atol=1e-12)


def test_matchings_cap_bounds_the_dp_states():
    spec = PerfectMatchings(8)  # 2^8 = 256 mask states
    X = np.random.default_rng(4).standard_normal((20, spec.n))
    for cap in (100, 255):
        with pytest.raises(CapExceededError):
            spec.log_mean_exp_batch(1.0, X, cap=cap)
    assert np.array_equal(spec.log_mean_exp_batch(1.0, X, cap=256), spec.log_mean_exp_batch(1.0, X))
    # the cap does not bound the maximum, whose path depends on m only
    assert np.array_equal(spec.max_values_batch(X, cap=100), spec.max_values_batch(X))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_workers_give_the_same_values(family):
    spec = FAMILIES[family](5)
    inst = ProblemInstance(spec, 1.1)
    one = estimate_bayes_risk(inst, 2100, SeededRng(77), workers=1)
    two = estimate_bayes_risk(inst, 2100, SeededRng(77), workers=2)
    assert one == two
    emax0 = 2.0 * math.sqrt(spec.K)
    one = estimate_risk("maximum", inst, 2100, SeededRng(78), emax0=emax0, workers=1)
    two = estimate_risk("maximum", inst, 2100, SeededRng(78), emax0=emax0, workers=2)
    assert one == two


@pytest.mark.parametrize(
    "argv",
    [
        "risk --class matchings --m 10 --test optimal --mu 0.6 --trials 40 --seed 5",
        "risk --class trees --m 12 --test optimal --mu 0.6 --trials 40 --seed 5",
    ],
)
def test_likelihood_ratio_runs_past_the_old_enumeration_cap(capsys, argv):
    # 10! and 12^10 exceed the default cap of 2,000,000 members
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("#schema=combidetect.risk.v1\n")
