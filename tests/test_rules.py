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
from combidetect.rules import TESTS, batch_rejections


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
        got = batch_rejections(test, pi, X, emax0=emax0)
        for i in range(X.shape[0]):
            if test == "averaging":
                d = averaging_test(X[i], pi)
            elif test == "maximum":
                d = maximum_test(X[i], pi, emax0=emax0)
            else:
                d = optimal_test(X[i], pi)
            assert bool(got[i]) == d.reject

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="unknown test"):
            batch_rejections("median", inst(), np.zeros((1, 4)))

    def test_maximum_requires_emax0(self):
        with pytest.raises(ValueError):
            batch_rejections("maximum", inst(), np.zeros((1, 4)))
