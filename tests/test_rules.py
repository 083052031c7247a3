import mpmath
import numpy as np
import pytest

from combidetect import (
    DegenerateParameterError,
    ProblemInstance,
    SeededRng,
    log_likelihood_ratio,
    make_class,
    averaging_test,
    maximum_test,
    optimal_test,
)
from combidetect.rules import TESTS, _decide, batch_rejections


def inst(family="disjoint", mu=1.0, **kw):
    kw = kw or dict(N=2, K=2)
    return ProblemInstance(make_class(family, **kw), mu)


class TestAveraging:
    def test_statistic_and_threshold(self):
        d = averaging_test([1.0, 2.0, -0.5, 0.0], inst(mu=1.5))
        assert d.statistic == pytest.approx(2.5)
        assert d.threshold == pytest.approx(1.5)
        assert d.reject

    def test_tie_accepts(self):
        # sum exactly mu*K/2 = 1
        d = averaging_test([1.0, 0.0, 0.0, 0.0], inst(mu=1.0))
        assert d.statistic == d.threshold == 1.0
        assert not d.reject

    def test_refuses_mu_zero(self):
        with pytest.raises(DegenerateParameterError):
            averaging_test(np.zeros(4), inst(mu=0.0))

    def test_refuses_non_finite_vectors(self):
        pi = inst("disjoint", mu=1.0, N=2, K=3)
        x = [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]
        for rule in (averaging_test, optimal_test, log_likelihood_ratio):
            with pytest.raises(ValueError, match="finite"):
                rule(x, pi)
        with pytest.raises(ValueError, match="finite"):
            maximum_test(x, pi, emax0=1.0)


class TestMaximum:
    def test_statistic_is_best_member_sum(self):
        d = maximum_test([1.0, 1.0, 5.0, -9.0], inst(mu=1.0), emax0=1.0)
        # blocks {1,2} and {3,4}: sums 2 and -4
        assert d.statistic == pytest.approx(2.0)
        assert d.threshold == pytest.approx(1.5)
        assert d.reject

    def test_tie_rejects(self):
        d = maximum_test([1.0, 1.0, 0.0, 0.0], inst(mu=1.0), emax0=2.0)
        assert d.statistic == d.threshold == 2.0
        assert d.reject

    def test_requires_finite_emax0(self):
        with pytest.raises(ValueError):
            maximum_test(np.zeros(4), inst(), emax0=np.inf)

    def test_runs_at_mu_zero(self):
        d = maximum_test(np.zeros(4), inst(mu=0.0), emax0=3.0)
        assert d.threshold == 1.5
        assert not d.reject


class TestLikelihoodRatio:
    def test_single_set_closed_form(self):
        # one candidate set {1}: log L = mu*x - mu^2/2 exactly
        pi = inst("disjoint", mu=0.8, N=1, K=1)
        for x in (-1.0, 0.0, 2.3):
            assert log_likelihood_ratio(np.array([x]), pi) == pytest.approx(
                0.8 * x - 0.32, abs=1e-14
            )

    def test_mu_zero_gives_zero(self):
        pi = inst("ksets", mu=0.0, n=6, K=2)
        assert log_likelihood_ratio(SeededRng(1).generator().standard_normal(6), pi) == 0.0

    def test_matches_high_precision_reference(self):
        spec = make_class("ksets", n=6, K=2)
        M = spec.member_matrix()
        gen = SeededRng(31).generator()
        for mu in (0.1, 1.0, 7.0, 30.0):
            pi = ProblemInstance(spec, mu)
            x = gen.standard_normal(6)
            with mpmath.workdps(50):
                terms = [mpmath.exp(mpmath.mpf(mu) * mpmath.fsum(x[r])) for r in M]
                ref = mpmath.log(mpmath.fsum(terms) / len(terms)) - mpmath.mpf(mu) ** 2
                ref = float(ref)
            got = log_likelihood_ratio(x, pi)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_tie_accepts(self):
        pi = inst("disjoint", mu=1.2, N=1, K=1)
        d = optimal_test(np.array([0.6]), pi)  # log L exactly 0
        assert d.statistic == 0.0
        assert not d.reject
        assert optimal_test(np.array([0.6 + 1e-9]), pi).reject


#: (family, parameters) of the classes whose batch and scalar rules are compared
BATCH_CLASSES = [
    ("disjoint", dict(N=4, K=3)),
    ("ksets", dict(n=8, K=3)),
    ("stars", dict(m=5)),
    ("matchings", dict(m=3)),
    ("grid", dict(sqrt_n=4, sqrt_K=2)),
    ("trees", dict(m=5)),
    ("cliques", dict(m=6, k=3)),
]


class TestBatchAgreement:
    @pytest.mark.parametrize("family,kw", BATCH_CLASSES)
    @pytest.mark.parametrize("test", TESTS)
    def test_batch_equals_scalar(self, family, kw, test):
        spec = make_class(family, **kw)
        pi = ProblemInstance(spec, 0.9)
        # a fixed substream per case, so that a failure replays from its seed
        key = BATCH_CLASSES.index((family, kw)), TESTS.index(test)
        X = SeededRng(47).child(*key).generator().standard_normal((40, spec.n))
        emax0 = 2.5
        stat, _, got = _decide(test, spec, X, pi.mu, emax0, None)
        assert np.array_equal(got, batch_rejections(test, spec, X, pi.mu, emax0=emax0))
        for i in range(X.shape[0]):
            if test == "averaging":
                d = averaging_test(X[i], pi)
            elif test == "maximum":
                d = maximum_test(X[i], pi, emax0=emax0)
            else:
                d = optimal_test(X[i], pi)
            # a scalar rule is the batch on one row: the same statistic, bit for bit
            assert np.float64(d.statistic).view(np.int64) == stat[i].view(np.int64)
            assert bool(got[i]) == d.reject

    @pytest.mark.parametrize("family,kw", BATCH_CLASSES)
    @pytest.mark.parametrize("test", TESTS)
    def test_per_row_mu_equals_the_scalar_rules(self, family, kw, test):
        # runs of equal mu, a value that comes back after another, and mu = 0
        # where the rule has one; each row decides as a lone row at its own mu
        spec = make_class(family, **kw)
        third = 2.0 if test == "averaging" else 0.0
        mus = np.repeat([0.4, 1.3, third, 0.4], [3, 4, 2, 3])
        key = BATCH_CLASSES.index((family, kw)), TESTS.index(test)
        X = SeededRng(48).child(*key).generator().standard_normal((mus.size, spec.n))
        stat, thr, rej = _decide(test, spec, X, mus, 2.5, None)
        for i, mu in enumerate(mus.tolist()):
            one = _decide(test, spec, X[i : i + 1], mu, 2.5, None)
            assert stat[i].view(np.int64) == one[0][0].view(np.int64)
            assert (thr[i], rej[i]) == (one[1][0], one[2][0])

    @pytest.mark.parametrize("test, mus, error, match", [
        ("averaging", [1.0, 0.0, 9e307], DegenerateParameterError, "undefined at mu = 0"),
        ("averaging", [1.0, 9e307, 0.0], OverflowError, r"averaging threshold at mu = 9e\+307 "),
        ("maximum", [1.0, 1e308, 1.7e308], OverflowError, r"maximum threshold at mu = 1e\+308 "),
        ("optimal", [1.0, 1e200, 1e154], OverflowError, r"optimal threshold at mu = 1e\+200 "),
        ("optimal", [1.0, 1e154, 1e200], OverflowError, r"optimal threshold at mu = 1e\+154 "),
    ])
    def test_per_row_mu_is_refused_at_its_first_refused_row(self, test, mus, error, match):
        # each distinct mu is refused as the scalar rule refuses it, in row order
        X = np.zeros((len(mus), 4))
        with pytest.raises(error, match=match):
            batch_rejections(test, inst().set_class, X, np.array(mus), emax0=2.5)

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="unknown test"):
            batch_rejections("median", inst().set_class, np.zeros((1, 4)), 1.0)

    def test_maximum_requires_emax0(self):
        with pytest.raises(ValueError):
            batch_rejections("maximum", inst().set_class, np.zeros((1, 4)), 1.0)


class TestFloatRange:
    """A threshold past the float range, or a NaN statistic, would decide
    every row alike whatever the data; the rule refuses it instead."""

    @pytest.mark.parametrize("rule, mu", [
        (averaging_test, 9e307),  # mu * K = 1.8e308
        (lambda x, pi: maximum_test(x, pi, emax0=2.5), 1e308),
        (optimal_test, 1e154),  # K * mu**2 = 2e308
        (optimal_test, 1e155),  # mu**2 itself
    ])
    def test_threshold_past_the_float_range(self, rule, mu):
        with pytest.raises(OverflowError):
            rule(np.zeros(4), inst(mu=mu))

    def test_mu_squared_past_the_float_range_is_the_declared_refusal(self):
        # mu**2 of a Python float raises its own OverflowError, not inf
        with pytest.raises(OverflowError, match=r"^the optimal threshold at mu = 1e\+200 is past the float range$"):
            optimal_test(np.zeros(4), inst(mu=1e200))

    def test_nan_statistic(self):
        # mu * X_S is inf for every member: the log-sum-exp reads inf - inf
        X = np.zeros((3, 4))
        X[1] = 1e160
        with pytest.raises(OverflowError, match="optimal statistic"):
            log_likelihood_ratio(X[1], inst(mu=1e150))
        with pytest.raises(OverflowError, match="optimal statistic"):
            batch_rejections("optimal", inst().set_class, X, 1e150)
        # a block of one mu per row names the mu of the first row whose statistic is NaN
        with pytest.raises(OverflowError, match=r"optimal statistic at mu = 1e\+150 "):
            batch_rejections("optimal", inst().set_class, X, np.array([1.0, 1e150, 2.0]))

    def test_largest_finite_shift_still_decides(self):
        # K = 1: mu**2 / 2 stays finite, and so does the statistic
        d = optimal_test(np.array([1.3e154]), inst(mu=1.3e154, N=1, K=1))
        assert np.isfinite(d.statistic) and d.reject
