import ctypes
import functools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest
from scipy import integrate
from numpy.polynomial.hermite import hermgauss
from scipy.stats import chisquare, ks_2samp, norm

from combidetect import (
    AsymmetricClassError,
    DegenerateParameterError,
    ExplicitClass,
    ProblemInstance,
    RiskEstimate,
    SeededRng,
    emax_upper_cap,
    estimate_bayes_risk,
    estimate_bhattacharyya,
    estimate_emax0,
    estimate_risk,
    evaluate_bound,
    make_class,
    monotonicity_check,
    nonmonotonicity_demo,
    scan_critical_mu,
)
from combidetect import risk
from combidetect._output import fmt17
from combidetect.classes import FAMILIES, MemberMaximum
from combidetect.cli import main
from combidetect.core import CapExceededError
from combidetect.risk import (
    _CACHE_FLOATS,
    _FAN_OUT_OBS,
    _MIXTURE_ARM,
    _NULL_ARM,
    _chunk_size,
    _draw_block,
    _interpolate_half,
    _per_trial_values,
    _pool_size,
    _worker_pool,
    render_curve,
    render_risk_rows,
    risk_at,
)
from combidetect.rules import _decide, batch_rejections


def _arms(instance, arms=(_NULL_ARM, _MIXTURE_ARM)):
    # the segments of one point's arms, as estimate_risk lays them out
    return [((arm,), instance.mu) for arm in arms]


#: one class per family, cliques at k = 3 and 4, and one class given by its rows
BLOCK_CLASSES = [
    make_class("disjoint", N=3, K=2),
    make_class("stars", m=5),
    make_class("ksets", n=9, K=3),
    make_class("matchings", m=4),
    make_class("trees", m=6),
    make_class("cliques", m=7, k=3),
    make_class("cliques", m=7, k=4),
    make_class("grid", sqrt_n=4, sqrt_K=2),
    ExplicitClass(6, np.array([[2, 3], [0, 1], [1, 4]])),
]

#: (keys, mu) of three mixture segments at distinct mu and two null ones
BLOCK_SEGMENTS = (
    np.array([[0, _NULL_ARM], [0, _MIXTURE_ARM], [1, _MIXTURE_ARM], [2, _NULL_ARM], [2, _MIXTURE_ARM]]),
    np.array([0.4, 0.4, 0.9, 1.7, 1.7]),
)


def _one_slice_rejections(test, spec, X, mu, **kwargs):
    # the rule, refusing a call of more rows than one slice, in whichever process decides it
    if len(X) > _CACHE_FLOATS // spec.draws:
        raise AssertionError(f"{len(X)} rows in one rule call")
    return batch_rejections(test, spec, X, mu, **kwargs)


@pytest.fixture
def fan_out_every_call(monkeypatch):
    # two workers split even a small call, so a test of worker invariance fans out
    from combidetect import risk

    monkeypatch.setattr(risk, "_FAN_OUT_OBS", 0)


@pytest.fixture
def own_pool():
    # drops the worker pool before and after the test, so that the test's pool
    # forks after its patches and no later test inherits them
    while risk._pools:
        risk._pools.popitem()[1].shutdown()
    yield
    while risk._pools:
        risk._pools.popitem()[1].shutdown()


def bayes_risk_two_disjoint_singletons(mu: float) -> float:
    """Quadrature value of the optimum risk for two disjoint single
    coordinates: 1 - E|L - 1|/2 under the null."""
    g = np.linspace(-10.0, 10.0 + mu, 4001)
    x, y = np.meshgrid(g, g, indexing="ij")
    L = 0.5 * (np.exp(mu * x - mu * mu / 2) + np.exp(mu * y - mu * mu / 2))
    w = norm.pdf(x) * norm.pdf(y)
    step = g[1] - g[0]
    e = float((np.abs(L - 1.0) * w).sum() * step * step)
    return 1.0 - e / 2.0


class TestRiskEstimate:
    def test_from_counts_arithmetic(self):
        e = RiskEstimate.from_counts(1, 1, 4)
        assert (e.type1, e.type2, e.total, e.trials) == (0.25, 0.25, 0.5, 4)
        assert e.se_type1 == pytest.approx(0.21650635094610965, rel=1e-15)
        assert e.se_total == pytest.approx(0.30618621784789729, rel=1e-15)

    def test_zero_and_full_rates(self):
        e = RiskEstimate.from_counts(0, 200, 200)
        assert e.type1 == 0.0 and e.type2 == 1.0 and e.se_type1 == 0.0


class TestAgainstClosedForms:
    @pytest.mark.parametrize(
        "spec", [make_class("disjoint", N=4, K=3), make_class("ksets", n=100, K=10), make_class("stars", m=8)],
        ids=repr,
    )
    def test_averaging_matches_normal_tail(self, spec):
        # coordinate sum is N(0, n) under the null, N(mu K, n) under any
        # member: the risk is two upper tails at mu K / (2 sqrt(n))
        mu = 1.1
        expect = norm.sf(mu * spec.K / (2 * math.sqrt(spec.n)))
        est = estimate_risk("averaging", ProblemInstance(spec, mu), 20_000, SeededRng(70))
        assert abs(est.type1 - expect) < 4 * est.se_type1
        assert abs(est.type2 - expect) < 4 * est.se_type2
        assert abs(est.total - 2 * expect) < 3 * est.se_total

    def test_maximum_matches_order_statistic_law(self):
        # K = 1: the statistic is the max of N independent normals
        spec = make_class("disjoint", N=8, K=1)
        mu, emax0 = 2.0, 2.0
        thr = (mu * 1 + emax0) / 2.0
        t1 = 1 - norm.cdf(thr) ** 8
        t2 = norm.cdf(thr - mu) * norm.cdf(thr) ** 7
        est = estimate_risk(
            "maximum", ProblemInstance(spec, mu), 20_000, SeededRng(71), emax0=emax0
        )
        assert abs(est.type1 - t1) < 4 * est.se_type1
        assert abs(est.type2 - t2) < 4 * est.se_type2

    def test_extreme_mu_drives_risk_to_zero(self):
        spec = make_class("stars", m=5)
        est = estimate_risk("optimal", ProblemInstance(spec, 8.0), 2_000, SeededRng(72))
        assert est.total < 0.01

    def test_optimal_risk_matches_bayes_quadrature(self):
        spec = make_class("disjoint", N=2, K=1)
        for mu in (0.5, 1.5):
            expect = bayes_risk_two_disjoint_singletons(mu)
            est = estimate_risk("optimal", ProblemInstance(spec, mu), 20_000, SeededRng(73))
            assert abs(est.total - expect) < max(4 * est.se_total, 0.01)

    def test_bayes_estimator_matches_quadrature(self):
        spec = make_class("disjoint", N=2, K=1)
        for mu in (0.5, 1.0, 2.0):
            expect = bayes_risk_two_disjoint_singletons(mu)
            got, se = estimate_bayes_risk(ProblemInstance(spec, mu), 40_000, SeededRng(74))
            assert abs(got - expect) < max(4 * se, 0.01)

    def test_bhattacharyya_single_set_affinity(self):
        # one candidate set: rho = exp(-mu^2 K / 8) / 2
        spec = make_class("disjoint", N=1, K=4)
        mu = 0.9
        got, se = estimate_bhattacharyya(ProblemInstance(spec, mu), 30_000, SeededRng(75))
        assert abs(got - 0.5 * math.exp(-(mu**2) * 4 / 8)) < 4 * se

    def test_bhattacharyya_sandwich_brackets_bayes_risk(self):
        spec = make_class("disjoint", N=2, K=1)
        mu = 1.0
        rho, se = estimate_bhattacharyya(ProblemInstance(spec, mu), 50_000, SeededRng(76))
        rstar = bayes_risk_two_disjoint_singletons(mu)
        lo = 1 - math.sqrt(max(0.0, 1 - 4 * rho**2))
        hi = 2 * rho
        assert lo - 4 * se <= rstar <= hi + 4 * se

    @pytest.mark.parametrize("estimator", [estimate_bayes_risk, estimate_bhattacharyya])
    def test_lr_estimators_refuse_where_the_rule_refuses(self, estimator):
        # K mu^2 / 2 is inf here, so log L would read -inf on every trial
        inst = ProblemInstance(make_class("ksets", n=5, K=3), 1e154)
        with pytest.raises(OverflowError, match="past the float range"):
            estimator(inst, 10, SeededRng(1))
        with pytest.raises(OverflowError, match="past the float range"):
            estimate_risk("optimal", inst, 10, SeededRng(1))

    def test_emax_of_64_singletons(self):
        spec = make_class("disjoint", N=64, K=1)
        f = lambda x: 64 * x * norm.pdf(x) * norm.cdf(x) ** 63
        expect = integrate.quad(f, -12, 12, limit=200)[0]
        est = estimate_emax0(spec, 20_000, SeededRng(77))
        assert abs(est.emax - expect) < 4 * est.std_error
        assert est.gaussian_cap == pytest.approx(math.sqrt(2 * math.log(64)))
        assert est.emax < est.gaussian_cap


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        spec = make_class("ksets", n=9, K=2)
        pi = ProblemInstance(spec, 0.8)
        a = estimate_risk("optimal", pi, 500, SeededRng(80))
        b = estimate_risk("optimal", pi, 500, SeededRng(80))
        assert a == b

    def test_worker_count_does_not_change_result(self):
        spec = make_class("stars", m=6)
        pi = ProblemInstance(spec, 0.7)
        serial = estimate_risk("maximum", pi, 2050, SeededRng(81), emax0=2.0, workers=1)
        threaded = estimate_risk("maximum", pi, 2050, SeededRng(81), emax0=2.0, workers=4)
        assert serial == threaded

    def test_emax_worker_invariance(self):
        spec = make_class("disjoint", N=16, K=2)
        a = estimate_emax0(spec, 3001, SeededRng(82), workers=1)
        b = estimate_emax0(spec, 3001, SeededRng(82), workers=5)
        assert a == b

    def test_different_seeds_differ(self):
        spec = make_class("stars", m=5)
        pi = ProblemInstance(spec, 0.7)
        a = estimate_risk("optimal", pi, 800, SeededRng(1))
        b = estimate_risk("optimal", pi, 800, SeededRng(2))
        assert a != b

    @pytest.mark.parametrize(
        "family, params",
        [
            ("disjoint", {"N": 3, "K": 2}),
            ("stars", {"m": 5}),
            ("ksets", {"n": 9, "K": 3}),
            ("matchings", {"m": 4}),
            ("trees", {"m": 5}),
            ("cliques", {"m": 7, "k": 3}),
            ("grid", {"sqrt_n": 4, "sqrt_K": 2}),
        ],
    )
    def test_draw_block_replays_per_group_generators(self, family, params):
        # the reference: one pair of fresh generators per group address; the
        # block starts at the second group's bound, or at the first
        instance = ProblemInstance(make_class(family, **params), 0.9)
        spec, G = instance.set_class, _chunk_size(instance.n)
        rng = SeededRng(83, (2,))
        trials = G + 53
        for arm in (_NULL_ARM, _MIXTURE_ARM):
            expect = []
            for g, rows in enumerate((G, 53)):
                x = rng.child(arm, g, 0).generator().standard_normal((rows, instance.n))
                if arm == _MIXTURE_ARM:
                    members = spec.sample_rows(rng.child(arm, g, 1).generator(), rows)
                    x[np.arange(rows)[:, None], members] += instance.mu
                expect.append(x)
            segments = (np.array([[arm]]), np.array([instance.mu]))
            X, mu = _draw_block(spec, segments, 0, trials, rng, trials, [])
            np.testing.assert_array_equal(X, np.vstack(expect))
            np.testing.assert_array_equal(mu, np.full(trials, instance.mu))
            X, _ = _draw_block(spec, segments, G, trials, rng, trials, [])
            np.testing.assert_array_equal(X, expect[1])

    def test_block_straddling_the_arms_replays_per_group_generators(self):
        # 300 trials per arm, one group each, share one slice
        instance = ProblemInstance(make_class("stars", m=5), 0.9)
        spec, trials = instance.set_class, 300
        rng = SeededRng(83, (4,))
        blocks = []

        def values(X, mu):
            blocks.append(X.copy())
            return X[:, 0]

        out = _per_trial_values(values, spec, _arms(instance), trials, rng, 1)
        assert [len(X) for X in blocks] == [2 * trials]
        noise = [rng.child(arm, 0, 0).generator().standard_normal((trials, instance.n)) for arm in (0, 1)]
        members = spec.sample_rows(rng.child(_MIXTURE_ARM, 0, 1).generator(), trials)
        noise[_MIXTURE_ARM][np.arange(trials)[:, None], members] += instance.mu
        np.testing.assert_array_equal(blocks[0], np.vstack(noise))
        np.testing.assert_array_equal(out.ravel(), blocks[0][:, 0])

    @pytest.mark.parametrize("spec", BLOCK_CLASSES, ids=repr)
    def test_block_decodes_its_mixture_groups_at_once(self, spec):
        # one block from the second group of a null segment to the end: three
        # mixture segments at distinct mu, and a null one, of two groups each.
        # The reference draws each group's members with its own sample_rows
        # call and shifts them row by row at the segment's scalar mu
        G = _chunk_size(spec.n)
        trials = G + 5
        keys, mus = BLOCK_SEGMENTS
        rng = SeededRng(85, (1,))
        expect = []
        for point_arm, mu in zip(keys.tolist(), mus.tolist()):
            for g, rows in enumerate((G, 5)):
                x = rng.child(*point_arm, g, 0).generator().standard_normal((rows, spec.n))
                if point_arm[-1] == _MIXTURE_ARM:
                    members = spec.sample_rows(rng.child(*point_arm, g, 1).generator(), rows)
                    for row, member in zip(x, members):
                        row[member] += mu
                expect.append(x)
        X, mu = _draw_block(spec, (keys, mus), G, len(keys) * trials, rng, trials, [])
        np.testing.assert_array_equal(X, np.vstack(expect)[G:])
        np.testing.assert_array_equal(mu, np.repeat(mus, trials)[G:])

    @pytest.mark.parametrize("step", [1, 3, 7])
    @pytest.mark.parametrize("spec", BLOCK_CLASSES, ids=repr)
    def test_sliced_block_replays_the_whole_block(self, monkeypatch, spec, step):
        # groups of 5 trials, 12 trials a segment (groups of 5, 5 and 2), in
        # slices of step rows: a slice cuts a group mid-way, and one of 3 or 7
        # rows holds parts of two groups.  Each slice has the whole block's
        # rows and mu, and leaves the last group it draws, with that group's
        # member codes intact, for the next slice
        from combidetect import risk

        monkeypatch.setattr(risk, "_chunk_size", lambda n: 5)
        monkeypatch.setattr(risk, "_CACHE_FLOATS", step * spec.n)
        segments, trials, rng = BLOCK_SEGMENTS, 12, SeededRng(86, (3,))
        keys, rows = segments[0], len(segments[0]) * 12
        X, mu = _draw_block(spec, segments, 0, rows, rng, trials, [])
        live = []
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            x, m = _draw_block(spec, segments, lo, hi, rng, trials, live)
            np.testing.assert_array_equal(x, X[lo:hi])
            np.testing.assert_array_equal(m, mu[lo:hi])
            first, end, _, codes = live
            s, t = divmod(first, trials)
            assert t % 5 == 0 and first < hi <= end == min(first + 5, (s + 1) * trials)
            if keys[s, -1] == _MIXTURE_ARM:
                fresh = spec._codes(rng.child(*keys[s].tolist(), t // 5).generator(1), end - first)
                np.testing.assert_array_equal(codes, fresh)
            else:
                assert codes is None
        # a share from a group bound to the end, drawn and decided slice by slice
        for lo in (0, 17):
            share = risk._share_values(lambda x, m: x, spec, segments, trials, rng, (lo, rows))
            np.testing.assert_array_equal(share, X[lo:])

    def test_serial_run_calls_the_kernel_once_per_slice(self):
        # one call per slice and no other: the arms' trials lie end to end, in
        # groups of _chunk_size(n) trials, and 2 normals a row fit one slice
        instance = ProblemInstance(make_class("disjoint", N=2, K=1), 0.9)
        chunk = _chunk_size(instance.n)
        calls = []

        def values(X, mu):
            calls.append(X.shape[0])
            return X.sum(axis=1)

        spec = instance.set_class
        _per_trial_values(values, spec, _arms(instance, (_NULL_ARM,)), 2 * chunk + 5, SeededRng(84), 1)
        assert calls == [2 * chunk + 5]
        calls.clear()
        out = _per_trial_values(values, spec, _arms(instance), 2 * chunk + 5, SeededRng(84), 1)
        assert calls == [2 * (2 * chunk + 5)] and out.shape == (2, 2 * chunk + 5)

    @pytest.mark.parametrize(
        "spec, trials, slices",
        [
            # both arms of a small call in one slice, under _CACHE_FLOATS normals
            (make_class("matchings", m=8), 96, [192]),
            (make_class("trees", m=12), 8, [16]),
            (make_class("stars", m=50), 50, [100]),
            # 2000 rows of X in slices of _CACHE_FLOATS // n = 655 rows, the
            # third straddling the arms
            (make_class("ksets", n=200, K=5), 1000, [655, 655, 655, 35]),
            # each arm's groups of 1024 and 476 trials, 2 normals a row, in one slice
            (make_class("disjoint", N=2, K=1), 1500, [3000]),
        ],
    )
    def test_estimate_risk_calls_the_rule_once_per_slice(self, monkeypatch, spec, trials, slices):
        from combidetect import risk

        calls = []

        def counted(*args, **kwargs):
            value = batch_rejections(*args, **kwargs)
            calls.append(len(value))
            return value

        monkeypatch.setattr(risk, "batch_rejections", counted)
        instance = ProblemInstance(spec, 1.0)
        est = estimate_risk("maximum", instance, trials, SeededRng(7), emax0=emax_upper_cap(spec))
        assert calls == slices
        monkeypatch.undo()
        assert est == estimate_risk(
            "maximum", instance, trials, SeededRng(7), emax0=emax_upper_cap(spec), workers=2
        )

    @pytest.mark.parametrize(
        "test, spec, trials",
        [
            # two groups of 1024 rows of X per arm, in slices of 655 rows
            ("maximum", make_class("ksets", n=200, K=5), 2048),
            # the largest star sum, two normals a row: 80,000 rows, past one slice
            ("maximum", make_class("stars", m=50), 40_000),
            # the star sums, 51 normals a row, in slices of 2570 rows
            ("optimal", make_class("stars", m=50), 2048),
            # the averaging sum, one normal a row: 131,074 rows, past one slice
            ("averaging", make_class("ksets", n=100, K=10), 65537),
        ],
        ids=["ksets-max", "stars-max", "stars-lr", "ksets-avg"],
    )
    def test_no_rule_call_decides_more_than_one_slice(self, monkeypatch, test, spec, trials):
        # the caller and the worker alike decide their rows in slices of
        # _CACHE_FLOATS // w rows, w the normals a row draws
        from combidetect import risk

        monkeypatch.setattr(risk, "batch_rejections", _one_slice_rejections)
        instance, emax0 = ProblemInstance(spec, 1.0), emax_upper_cap(spec) if test == "maximum" else None
        one, two = (estimate_risk(test, instance, trials, SeededRng(7), emax0=emax0, workers=w) for w in (1, 2))
        assert one == two

    @pytest.mark.parametrize("estimate", [estimate_bayes_risk, estimate_bhattacharyya, estimate_emax0])
    def test_null_means_need_two_trials(self, estimate):
        # one trial has no standard error
        spec = make_class("disjoint", N=2, K=1)
        arg = spec if estimate is estimate_emax0 else ProblemInstance(spec, 0.9)
        with pytest.raises(ValueError, match="trials must be >= 2"):
            estimate(arg, 1, SeededRng(86))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cap_error_reaches_the_caller(self, workers):
        instance = ProblemInstance(make_class("cliques", m=9, k=5), 0.9)
        with pytest.raises(CapExceededError):
            estimate_risk("optimal", instance, 2100, SeededRng(85), cap=100, workers=workers)


#: one small class per family, and one given by its rows
WORKER_CLASSES = {
    "disjoint": lambda: make_class("disjoint", N=3, K=2),
    "ksets": lambda: make_class("ksets", n=7, K=3),
    "stars": lambda: make_class("stars", m=5),
    "matchings": lambda: make_class("matchings", m=4),
    "trees": lambda: make_class("trees", m=4),
    "cliques": lambda: make_class("cliques", m=6, k=3),
    "grid": lambda: make_class("grid", sqrt_n=4, sqrt_K=2),
    "explicit": lambda: ExplicitClass(8, np.array([[0, 1, 2], [2, 3, 5], [1, 4, 7], [5, 6, 7]])),
}


def _three_chunks(spec) -> int:
    return 2 * _chunk_size(spec.n) + 1


#: every estimator that takes ``workers``, as (spec, workers) -> result
WORKER_RUNS = {
    "averaging": lambda spec, w: estimate_risk(
        "averaging", ProblemInstance(spec, 0.8), _three_chunks(spec), SeededRng(90), workers=w
    ),
    "maximum": lambda spec, w: estimate_risk(
        "maximum", ProblemInstance(spec, 0.8), _three_chunks(spec), SeededRng(91),
        emax0=emax_upper_cap(spec), workers=w,
    ),
    "optimal": lambda spec, w: estimate_risk(
        "optimal", ProblemInstance(spec, 0.8), _three_chunks(spec), SeededRng(92), workers=w
    ),
    "bayes": lambda spec, w: estimate_bayes_risk(
        ProblemInstance(spec, 0.8), _three_chunks(spec), SeededRng(93), workers=w
    ),
    "bhattacharyya": lambda spec, w: estimate_bhattacharyya(
        ProblemInstance(spec, 0.8), _three_chunks(spec), SeededRng(94), workers=w
    ),
    "emax0": lambda spec, w: estimate_emax0(spec, _three_chunks(spec), SeededRng(95), workers=w),
    "scan": lambda spec, w: scan_critical_mu(
        spec, "maximum", [0.5, 1.5], _three_chunks(spec), SeededRng(96), workers=w
    ),
    "monotonicity": lambda spec, w: monotonicity_check(
        spec, 0.5, [0.9], _three_chunks(spec), SeededRng(97), workers=w
    ),
    "type1-cover": lambda spec, w: evaluate_bound(
        "type1-cover", dict(delta=0.1), spec=spec, rng=SeededRng(98),
        trials=_three_chunks(spec), workers=w,
    ),
}


class TestTrialGroups:
    """Trial t of a segment is row t % G of group t // G, G = _chunk_size(n);
    each group fills its rows in order from its own substreams."""

    @pytest.mark.parametrize("family", ["disjoint21", *sorted(WORKER_CLASSES)])
    def test_a_call_is_the_prefix_of_a_longer_call(self, family):
        # groups of 1024: 1500 trials end inside the second group of 3000,
        # whose mixture arm draws its members in one call too
        spec = make_class("disjoint", N=2, K=1) if family == "disjoint21" else WORKER_CLASSES[family]()
        instance = ProblemInstance(spec, 0.9)
        assert _chunk_size(instance.n) == 1024
        short, long = (
            _per_trial_values(_row_bytes, instance.set_class, _arms(instance), trials, SeededRng(140), 1)
            for trials in (1500, 3000)
        )
        assert short.tobytes() == np.ascontiguousarray(long[:, :1500]).tobytes()

    @pytest.mark.usefixtures("fan_out_every_call")
    def test_a_multi_group_call_does_not_depend_on_workers(self):
        instance = ProblemInstance(make_class("disjoint", N=2, K=1), 0.9)
        one, two = (
            _per_trial_values(_row_bytes, instance.set_class, _arms(instance), 3000, SeededRng(141), w)
            for w in (1, 2)
        )
        assert one.tobytes() == two.tobytes()

    def test_groups_seed_without_building_a_substream(self, monkeypatch):
        # each group takes its generators from rng.generator(*keys, group, 0)
        # and (..., 1) and builds no SeededRng, on two groups an arm of a
        # family that draws X and member codes; the estimates keep their values
        spec = make_class("ksets", n=9, K=3)
        assert spec.coded and spec.member_sums("optimal") is spec.member_sums("maximum") is None
        assert 1500 > _chunk_size(spec.n)

        def calls():
            return (
                estimate_risk("optimal", ProblemInstance(spec, 0.9), 1500, SeededRng(143, (2,))),
                scan_critical_mu(spec, "maximum", [0.5, 1.5], 1500, SeededRng(144)),
            )

        expect = calls()

        def refuse(self, *keys):
            raise AssertionError("a trial group built a substream")

        monkeypatch.setattr(SeededRng, "child", refuse)
        assert calls() == expect

    def test_slices_straddling_points_keep_each_points_values(self):
        # 300 trials of n = 10 per segment: all six segments in one slice, so
        # the slice straddles arms and points; each segment alone draws the same
        spec = make_class("stars", m=5)
        segments = [((i, arm), mu) for i, mu in enumerate([0.0, 0.7, 1.4]) for arm in (_NULL_ARM, _MIXTURE_ARM)]
        slices = []

        def values(X, mu):
            slices.append(len(X))
            return _row_bytes(X, mu)

        rng = SeededRng(142, (3,))
        together = _per_trial_values(values, spec, segments, 300, rng, 1)
        assert slices == [1800]
        for row, segment in zip(together, segments):
            (alone,) = _per_trial_values(values, spec, [segment], 300, rng, 1)
            assert row.tobytes() == alone.tobytes()


class TestRiskAtPoints:
    """risk_at lays every point's arms end to end in shared slices; each point
    must keep the estimate of its own call, drawn from rng.child(i)."""

    @pytest.mark.parametrize("family", sorted(WORKER_CLASSES))
    @pytest.mark.parametrize("test", ["averaging", "maximum", "optimal"])
    @pytest.mark.usefixtures("fan_out_every_call")
    def test_risk_at_equals_the_per_point_loop(self, family, test):
        spec = WORKER_CLASSES[family]()
        # mu = 0 where the rule has it; more trials than a chunk, so slices
        # straddle arms and points and two workers fan out
        mus = [0.3 if test == "averaging" else 0.0, 0.6, 1.7]
        trials = _chunk_size(spec.n) + 300
        emax0 = emax_upper_cap(spec) if test == "maximum" else None
        rng = SeededRng(120, (4,))
        expect = [
            estimate_risk(test, ProblemInstance(spec, mu), trials, rng.child(i), emax0=emax0)
            for i, mu in enumerate(mus)
        ]
        for workers in (1, 2):
            assert risk_at(test, spec, mus, trials, rng, emax0=emax0, workers=workers) == expect

    def test_a_scan_decides_each_slice_once(self, monkeypatch):
        from combidetect import risk

        calls = []

        def counted(*args, **kwargs):
            value = batch_rejections(*args, **kwargs)
            calls.append(len(value))
            return value

        monkeypatch.setattr(risk, "batch_rejections", counted)
        spec = make_class("matchings", m=8)
        grid = [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8]
        curve = scan_critical_mu(spec, "optimal", grid, 8, SeededRng(121))
        assert calls == [7 * 2 * 8]
        calls.clear()
        # 1500 trials per point: a group of one chunk and one of 476 trials per
        # arm, 2 normals a row, all in one slice
        scan_critical_mu(make_class("disjoint", N=2, K=1), "optimal", [0.5, 1.0], 1500, SeededRng(122))
        assert calls == [6000]
        calls.clear()
        assert risk_at("optimal", spec, [], 8, SeededRng(123)) == [] and calls == []
        monkeypatch.undo()
        assert curve == scan_critical_mu(spec, "optimal", grid, 8, SeededRng(121), workers=2)

    @pytest.mark.parametrize("test, mus, error, match", [
        ("optimal", [1.0, 5e199, 1e200], OverflowError, r"optimal threshold at mu = 5e\+199 "),
        ("averaging", [1.0, 9e307], OverflowError, r"averaging threshold at mu = 9e\+307 "),
        ("averaging", [0.0, 1.0], DegenerateParameterError, "undefined at mu = 0"),
        ("averaging", [1.0, 0.0, 9e307], DegenerateParameterError, "undefined at mu = 0"),
    ])
    def test_the_first_refused_point_is_refused_before_any_draw(self, monkeypatch, test, mus, error, match):
        from combidetect import risk

        monkeypatch.setattr(risk, "_draw_block", None)  # any draw would raise TypeError
        with pytest.raises(error, match=match):
            risk_at(test, make_class("ksets", n=5, K=2), mus, 5, SeededRng(1))

    def test_the_matchings_cap_refuses_a_grid_past_mu_zero(self):
        spec = make_class("matchings", m=8)
        with pytest.raises(CapExceededError, match="the subset DP has 256 mask states"):
            risk_at("optimal", spec, [0.0, 1.0], 5, SeededRng(1), cap=100)
        zero = risk_at("optimal", spec, [0.0], 5, SeededRng(1), cap=100)
        assert zero == [estimate_risk("optimal", ProblemInstance(spec, 0.0), 5, SeededRng(1).child(0))]


def _pid_values(X, mu):
    return np.full(X.shape[0], os.getpid())


def _row_bytes(X, mu):
    # each row's bytes and its mu's as one value, the same whatever rows its
    # slice holds (a BLAS product's last bits may depend on the row count)
    return np.hstack([X, mu[:, None]]).view(f"V{8 * (X.shape[1] + 1)}")[:, 0]


def _blas_get_threads():
    # numpy's bundled OpenBLAS thread count query, or None where this build has none
    get_threads = getattr(
        ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_openblas_get_num_threads64_", None
    )
    if get_threads is not None:
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads


def _blas_threads(_):
    return _blas_get_threads()()


def _refuse_slices(X, mu):
    # refuses every slice, in whichever process draws it
    raise CapExceededError(10, 5)


def _refuse_in_workers(X, mu):
    # refuses the slices of the workers' shares only
    if multiprocessing.parent_process() is not None:
        raise CapExceededError(10, 5)
    return np.zeros(X.shape[0])


def _blas_thread_values(X, mu):
    return np.full(X.shape[0], _blas_get_threads()())


#: a class and its trials per arm whose two arms draw past _FAN_OUT_OBS normals
ABOVE = make_class("ksets", n=100, K=10)
ABOVE_TRIALS = -(-_FAN_OUT_OBS // (2 * ABOVE.n))


def _fan_out(value_fn, seed, workers=2):
    # value_fn over both arms of a call above the threshold
    instance = ProblemInstance(ABOVE, 0.9)
    return _per_trial_values(value_fn, ABOVE, _arms(instance), ABOVE_TRIALS, SeededRng(seed), workers)


class TestWorkerProcesses:
    @pytest.mark.parametrize(
        "family, run",
        [
            (family, run)
            for family in sorted(WORKER_CLASSES)
            for run in sorted(WORKER_RUNS)
            # monotonicity_check refuses the asymmetric classes
            if run != "monotonicity" or WORKER_CLASSES[family]().is_symmetric
        ],
    )
    @pytest.mark.usefixtures("fan_out_every_call")
    def test_results_do_not_depend_on_workers(self, family, run):
        spec = WORKER_CLASSES[family]()
        one, two, three = (WORKER_RUNS[run](spec, w) for w in (1, 2, 3))
        assert one == two == three

    @pytest.mark.usefixtures("fan_out_every_call")
    def test_nonmonotonicity_demo_does_not_depend_on_workers(self):
        trials = 2 * _chunk_size((2 + 1) ** 2) + 1  # n = (K + 1)^2 at K = 2
        one, two, three = (
            nonmonotonicity_demo(2, 0.5, trials, SeededRng(99), workers=w) for w in (1, 2, 3)
        )
        assert one == two == three

    def test_second_fan_out_reuses_the_worker_processes(self):
        first = _fan_out(_pid_values, 85)
        pool = {p.pid for p in multiprocessing.active_children()}
        second = _fan_out(_pid_values, 86)
        pids = set(first.ravel()) | set(second.ravel())
        assert os.getpid() in pids and len(pids) == 2
        assert pids <= {os.getpid()} | pool
        assert {p.pid for p in multiprocessing.active_children()} == pool

    def test_a_call_above_the_threshold_runs_in_the_caller_and_one_worker(self):
        # Stars(50) drawn as X, 500 trials per arm: 1,225,000 normals (the
        # README's risk call, which reads the star sums, draws 51,000)
        instance = ProblemInstance(make_class("stars", m=50), 0.9)
        pids = _per_trial_values(_pid_values, instance.set_class, _arms(instance), 500, SeededRng(89), 2)
        workers = set(pids.ravel()) - {os.getpid()}
        assert set(pids[0]) == {os.getpid()} and len(workers) == 1
        assert workers <= {p.pid for p in multiprocessing.active_children()}

    def test_a_call_below_the_threshold_runs_in_the_caller(self):
        # six groups of a chunk, yet 12,288 normals in all
        instance = ProblemInstance(make_class("disjoint", N=2, K=1), 0.9)
        trials = 3 * _chunk_size(instance.n)
        assert 2 * trials * instance.n < _FAN_OUT_OBS
        pids = _per_trial_values(_pid_values, instance.set_class, _arms(instance), trials, SeededRng(89), 2)
        assert set(pids.ravel()) == {os.getpid()}

    def test_worker_error_reaches_the_caller(self):
        # the caller's own share succeeds; the worker's refuses
        with pytest.raises(CapExceededError) as exc:
            _fan_out(_refuse_in_workers, 87)
        assert (exc.value.cardinality, exc.value.cap) == (10, 5)

    def test_refused_fan_out_leaves_the_pool_working(self):
        _fan_out(_pid_values, 85)
        pool = {p.pid for p in multiprocessing.active_children()}
        for refuse in (_refuse_slices, _refuse_in_workers):
            with pytest.raises(CapExceededError):
                _fan_out(refuse, 87)
        one, two = (_fan_out(_row_bytes, 88, w) for w in (1, 2))
        assert one.tobytes() == two.tobytes()
        pids = set(_fan_out(_pid_values, 89).ravel())
        assert os.getpid() in pids and pids <= {os.getpid()} | pool
        assert {p.pid for p in multiprocessing.active_children()} == pool

    @pytest.mark.usefixtures("own_pool")
    def test_a_split_without_blas_thread_control_gives_the_serial_bytes(self, monkeypatch):
        # where numpy's BLAS library cannot be loaded, the caller and the
        # workers forked after the patch leave the BLAS thread count alone.
        # The lookup is held after its first call, so the test starts from an
        # empty one, and the held lookup comes back after it
        def no_library(*args, **kwargs):
            raise OSError("no library")

        monkeypatch.setattr(risk, "_blas_controls", functools.cache(risk._blas_controls.__wrapped__))
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert risk._set_blas_threads(1) is None
        assert len(set(_fan_out(_pid_values, 85).ravel())) == 2
        assert _fan_out(_row_bytes, 88).tobytes() == _fan_out(_row_bytes, 88, 1).tobytes()

    def test_blas_thread_control_is_looked_up_once(self, monkeypatch):
        real, loads = ctypes.CDLL, []

        def counted(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(risk, "_blas_controls", functools.cache(risk._blas_controls.__wrapped__))
        monkeypatch.setattr(ctypes, "CDLL", counted)
        previous = risk._set_blas_threads(1)
        restored = risk._set_blas_threads(1 if previous is None else previous)
        assert len(loads) == 1
        assert restored is None if previous is None else restored == 1

    def test_a_dead_worker_costs_one_call(self):
        # the broken pool is dropped, so the call after the refused one forks a fresh pool
        (worker,) = set(_fan_out(_pid_values, 85).ravel()) - {os.getpid()}
        os.kill(worker, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while worker in {p.pid for p in multiprocessing.active_children()} and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            _fan_out(_row_bytes, 88)
        assert _fan_out(_row_bytes, 88).tobytes() == _fan_out(_row_bytes, 88, 1).tobytes()
        assert worker not in set(_fan_out(_pid_values, 85).ravel())

    @pytest.mark.parametrize("step", [1, 3, 7, None])
    @pytest.mark.usefixtures("own_pool", "fan_out_every_call")
    def test_the_second_share_starts_on_the_group_bound_past_the_halfway_row(self, monkeypatch, step):
        # groups of 5 trials and 12 trials a segment: the five segments' 60
        # rows have their halfway row 30 inside the group of rows 29..33,
        # whose midpoint gives it to the worker.  Slices of 1, 3 or 7 rows, or
        # the whole share, cut groups on either side of the share bound
        spec = make_class("ksets", n=9, K=3)
        monkeypatch.setattr(risk, "_chunk_size", lambda n: 5)
        if step is not None:
            monkeypatch.setattr(risk, "_CACHE_FLOATS", step * spec.n)
        segments = [(tuple(keys), mu) for keys, mu in zip(BLOCK_SEGMENTS[0].tolist(), BLOCK_SEGMENTS[1])]
        trials, half = 12, len(segments) * 12 // 2
        assert half % trials % 5 != 0
        pids = _per_trial_values(_pid_values, spec, segments, trials, SeededRng(91), 2).ravel()
        assert set(pids[:29]) == {os.getpid()} and os.getpid() not in set(pids[29:])
        assert 29 % trials % 5 == 0
        one, two = (_per_trial_values(_row_bytes, spec, segments, trials, SeededRng(91), w) for w in (1, 2))
        assert one.tobytes() == two.tobytes()

    @pytest.mark.usefixtures("fan_out_every_call")
    def test_spans_straddling_the_arms_do_not_depend_on_workers(self):
        # 2 * (chunk + 7) rows in four groups: one process draws them in one
        # slice across the arms, two or three cut them at group bounds
        instance = ProblemInstance(make_class("ksets", n=7, K=3), 0.8)
        trials = _chunk_size(instance.n) + 7
        arms = _arms(instance)
        one, two, three = (
            _per_trial_values(_row_bytes, instance.set_class, arms, trials, SeededRng(88), w)
            for w in (1, 2, 3)
        )
        assert one.shape == (2, trials)
        assert one.tobytes() == two.tobytes() == three.tobytes()

    def test_worker_blas_runs_one_thread(self):
        # a worker with two BLAS threads beside the caller's share would put
        # three compute threads on two cores
        if _blas_get_threads() is None:
            pytest.skip("numpy's BLAS on this build has no OpenBLAS thread control")
        assert set(_worker_pool(_pool_size(2) - 1).map(_blas_threads, range(4))) == {1}

    def test_caller_blas_runs_one_thread_for_its_share_only(self):
        if _blas_get_threads() is None:
            pytest.skip("numpy's BLAS on this build has no OpenBLAS thread control")
        before = _blas_get_threads()()
        assert set(_fan_out(_blas_thread_values, 90).ravel()) == {1}
        assert _blas_get_threads()() == before
        with pytest.raises(CapExceededError):
            _fan_out(_refuse_slices, 91)
        assert _blas_get_threads()() == before

    def test_clique_lr_bits_do_not_depend_on_blas_threads(self):
        # the k = 4 clique LR is one stacked matmul per vertex over a block of
        # rows; a worker runs it on one BLAS thread, the caller on the default count
        code = (
            "import numpy as np; from combidetect import make_class; "
            "c = make_class('cliques', m=63, k=4); "
            "X = np.random.default_rng(5).standard_normal((4, c.n)); "
            "print(c.log_mean_exp_batch(0.8, X).tobytes().hex())"
        )
        default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        outs = []
        for env in (default, default | {"OPENBLAS_NUM_THREADS": "1"}):
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and len(outs[0].strip()) == 4 * 16

    def test_a_new_size_replaces_the_pool(self):
        one = _worker_pool(1)
        assert _worker_pool(1) is one
        two = _worker_pool(2)
        assert two is not one and _worker_pool(2) is two

    def test_pool_size_stops_at_the_cpu_count(self):
        # the sizing rule alone: no pool of this size is ever started
        assert _pool_size(10**6) == os.cpu_count()
        assert _pool_size(2) == min(2, os.cpu_count())


def _statistics(test, spec, X, mu):
    # the rule's statistic per row; the maximum's does not depend on emax0
    return _decide(test, spec, X, mu, 0.0, None)[0]


class TestMemberSums:
    """Where the law of the member sums a test reads is closed-form, a trial
    draws those sums, not X; the X path stays the reference."""

    def test_the_table_of_pairs_that_draw_sums(self):
        # (family, test) -> (sums a row reads, normals a row draws); every
        # pair absent here draws X, and a change to this table is a choice
        assert set(WORKER_CLASSES) == set(FAMILIES) | {"explicit"}
        drawn = {
            (family, test): (law.width, law.draws)
            for family, make in WORKER_CLASSES.items()
            for test in ("averaging", "maximum", "optimal")
            if (law := make().member_sums(test)) is not None
        }
        assert drawn == {
            **{(family, "averaging"): (1, 1) for family in WORKER_CLASSES},
            ("stars", "maximum"): (5, 2),
            ("stars", "optimal"): (5, 6),
            ("disjoint", "maximum"): (3, 3),
            ("disjoint", "optimal"): (3, 3),
        }
        # singleton blocks draw their sums too, with the bits of X (below)
        singletons = make_class("disjoint", N=3, K=1)
        assert [singletons.member_sums(test) is None for test in ("averaging", "maximum", "optimal")] == [
            False, False, False,
        ]

    @pytest.mark.parametrize("spec, test, mu, seed", [
        (make_class("stars", m=6), "maximum", 0.7, 1),
        (make_class("stars", m=6), "optimal", 0.7, 2),
        (make_class("stars", m=50), "maximum", 0.9305, 3),
        (make_class("stars", m=50), "optimal", 0.5, 4),
        (make_class("disjoint", N=4, K=3), "maximum", 0.8, 5),
        (make_class("disjoint", N=4, K=3), "optimal", 0.8, 6),
        (make_class("ksets", n=9, K=3), "averaging", 0.6, 7),
        (make_class("matchings", m=4), "averaging", 0.6, 8),
        (make_class("trees", m=5), "averaging", 0.6, 9),
    ], ids=str)
    def test_drawn_statistic_has_the_law_of_the_x_path(self, spec, test, mu, seed):
        # a two-sample Kolmogorov-Smirnov test per arm, 20,000 rows each; the
        # two paths draw from distinct streams, since they would share normals
        law, trials = spec.member_sums(test), 20_000
        segments = _arms(ProblemInstance(spec, mu))
        full = _per_trial_values(lambda X, m: _statistics(test, spec, X, m), spec, segments, trials,
                                 SeededRng(150, (seed, 0)), 1)
        sums = _per_trial_values(lambda Y, m: _statistics(test, law, Y, m), law, segments, trials,
                                 SeededRng(150, (seed, 1)), 1)
        for arm in (_NULL_ARM, _MIXTURE_ARM):
            assert ks_2samp(full[arm], sums[arm]).pvalue > 1e-3

    @pytest.mark.parametrize("m", [4, 6, 50])
    def test_drawn_star_sums_have_the_star_covariance(self, m):
        # (m - 2) I + J, each entry within 5 of its standard errors
        law, rows = make_class("stars", m=m).member_sums("optimal"), 200_000
        Y, _ = _draw_block(law, (np.array([[_NULL_ARM]]), np.array([0.0])), 0, rows, SeededRng(151), rows, [])
        assert Y.shape == (rows, m)
        cov = Y.T @ Y / rows
        expect = (m - 2) * np.eye(m) + 1.0
        se = np.sqrt((np.outer(np.diag(expect), np.diag(expect)) + expect**2) / rows)
        assert np.all(np.abs(cov - expect) < 5 * se)
        assert np.all(np.abs(Y.mean(axis=0)) < 5 * np.sqrt((m - 1) / rows))

    @pytest.mark.parametrize("spec, own, shared", [
        (make_class("stars", m=5), 4.0, 1.0),
        (make_class("disjoint", N=5, K=3), 3.0, 0.0),
    ], ids=repr)
    def test_a_mixture_row_shifts_its_members_sum_and_the_overlaps(self, spec, own, shared):
        # the mean of sum c' is mu |S_c' ∩ S_c| for the member S_c, code c
        law = spec.member_sums("optimal")
        Z = np.zeros((3, law.draws))
        Y = law._observe(Z, np.array([0, 2]), np.array([4, 1]), np.array([0.5, 2.0]))
        expect = np.zeros((3, 5))
        expect[0], expect[2] = 0.5 * shared, 2.0 * shared
        expect[0, 4], expect[2, 1] = 0.5 * own, 2.0 * own
        np.testing.assert_array_equal(Y, expect)

    @pytest.mark.parametrize("N", [2, 8])
    def test_singleton_block_sums_keep_the_bits_of_the_x_path(self, N):
        # at K = 1 the block sums are X: same normals, same shift, same
        # kernels, so the sums such a class draws keep the bits of X
        spec = make_class("disjoint", N=N, K=1)
        law = spec.member_sums("maximum")
        assert (law.width, law.scale, law.common) == (N, 1.0, False)
        segments = [((i, arm), mu) for i, mu in enumerate([0.0, 0.7, 1.9]) for arm in (_NULL_ARM, _MIXTURE_ARM)]
        for test in ("maximum", "optimal"):
            full, sums = (
                _per_trial_values(lambda X, m, s=s: _statistics(test, s, X, m), s, segments, 2100, SeededRng(153), 1)
                for s in (spec, law)
            )
            assert full.tobytes() == sums.tobytes()
        inst = ProblemInstance(spec, 1.3)
        for estimate in (estimate_bayes_risk, estimate_bhattacharyya):
            assert estimate(inst, 2100, SeededRng(154)) == risk._null_mean(
                partial(risk._lr_values, estimate is estimate_bhattacharyya, spec, None), spec, 1.3, 2100,
                SeededRng(154), 1,
            )

    @pytest.mark.parametrize("argv", [
        "risk --class stars --m 50 --test maximum --mu 0.9 --trials 1100",
        "risk --class stars --m 6 --test optimal --mu 0.5 --mu 1.5 --trials 1100",
        "risk --class disjoint --N 4 --K 3 --test optimal --mu 0.8 --trials 1100",
        "risk --class ksets --n 100 --K 10 --test averaging --mu 4.3 --trials 1100",
        "scan --class stars --m 5 --test maximum --mu-grid 0.5:2.5:3 --trials 1100",
        "scan --class disjoint --N 8 --K 8 --test optimal --mu-grid 0.3:2.2:4 --trials 1100",
        "emax --class stars --m 7 --trials 2100",
        "emax --class disjoint --N 5 --K 2 --trials 2100",
    ])
    @pytest.mark.usefixtures("fan_out_every_call")
    def test_every_drawn_path_gives_equal_bytes_across_workers(self, capsys, argv):
        outs = []
        for workers in ("1", "2"):
            assert main(argv.split() + ["--seed", "9", "--workers", workers]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


def _maxima(Y, mu):
    # a MemberMaximum block is its rows' maxima
    return Y


def _maximum_cdf(law, t, mu=0.0):
    # P(max < t) on a row at mu, 0 on the null arm, from the law of the m star
    # sums: the member's h + s g + mu K and the others' h + mu + s g', by
    # Gauss-Hermite quadrature over the common h
    s, N, K = law.sums.scale, law.width, law.K
    h, w = hermgauss(80)
    h, w = math.sqrt(2.0) * h, w / math.sqrt(math.pi)
    t = np.asarray(t, dtype=float)[..., None]
    own = norm.cdf((t - h - mu * K) / s)
    others = norm.cdf((t - h - mu) / s) ** (N - 1)
    return (own * others) @ w


#: classes whose maximum a MemberMaximum draws: the smallest star, and two more
MAXIMUM_CLASSES = [
    make_class("stars", m=3),
    make_class("stars", m=6),
    make_class("stars", m=50),
]


class TestMemberMaximum:
    """On stars the maximum test reads the largest of the exchangeable star
    sums, and a trial draws it from its order-statistic law: two normals a
    row, and one uniform a row on both arms."""

    @pytest.mark.parametrize("spec", MAXIMUM_CLASSES, ids=repr)
    def test_maxima_have_the_law_of_the_largest_member_sum(self, spec):
        # a chi-square test of 20,000 maxima an arm, in 20 bins equally likely
        # under the law of the sums: the probability transform of each
        # maximum is uniform
        law, trials, mu = spec.member_sums("maximum"), 20_000, 0.6
        assert isinstance(law, MemberMaximum)
        maxima = _per_trial_values(_maxima, law, _arms(ProblemInstance(spec, mu)), trials, SeededRng(160), 1)
        for arm, at in ((_NULL_ARM, 0.0), (_MIXTURE_ARM, mu)):
            u = _maximum_cdf(law, maxima[arm], at)
            counts = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
            assert chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("spec, mu", [
        (make_class("stars", m=3), 1.2),
        (make_class("stars", m=6), 1.0),
        (make_class("stars", m=50), 0.5),
    ], ids=str)
    def test_maximum_risk_matches_a_quadrature_of_the_law(self, spec, mu):
        # the threshold where the null law puts 15% above, so both error rates
        # are far from 0 and 1; each rate within 4 of its standard errors
        law, trials = spec.member_sums("maximum"), 20_000
        grid = np.linspace(-10.0, 10.0 + 0.5 * law.width + mu * law.K, 20_001) * law.sums.scale
        t = float(np.interp(0.85, _maximum_cdf(law, grid), grid))
        emax0 = 2.0 * t - mu * spec.K
        est = estimate_risk("maximum", ProblemInstance(spec, mu), trials, SeededRng(161), emax0=emax0)
        type1, type2 = 1.0 - float(_maximum_cdf(law, t)), float(_maximum_cdf(law, t, mu))
        assert 0.05 < type2 < 0.95
        for got, expect in ((est.type1, type1), (est.type2, type2)):
            assert abs(got - expect) <= 4.0 * math.sqrt(expect * (1.0 - expect) / trials)

    @pytest.mark.parametrize("step", [None, 7])
    @pytest.mark.parametrize("spec", MAXIMUM_CLASSES, ids=repr)
    @pytest.mark.usefixtures("own_pool", "fan_out_every_call")
    def test_maxima_do_not_depend_on_slices_or_workers(self, monkeypatch, spec, step):
        # two groups a segment, over three points and both arms: slices of 7
        # rows cut the groups, which carry their uniforms to the next
        # slice, and two workers split them; the pool forks after the patch
        law = spec.member_sums("maximum")
        segments = [((i, arm), mu) for i, mu in enumerate([0.0, 0.8, 1.9]) for arm in (_NULL_ARM, _MIXTURE_ARM)]
        trials, rng = _chunk_size(spec.n) + 300, SeededRng(162)
        expect = _per_trial_values(_maxima, law, segments, trials, rng, 1)
        if step is not None:
            monkeypatch.setattr(risk, "_CACHE_FLOATS", step * law.draws)
        for workers in (1, 2):
            assert _per_trial_values(_maxima, law, segments, trials, rng, workers).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("spec", MAXIMUM_CLASSES[:2], ids=repr)
    def test_a_cut_group_carries_its_uniforms_on_both_arms(self, monkeypatch, spec):
        # groups of 5 trials, 12 a segment, in slices of 3 rows: each slice
        # leaves its last group's uniforms, drawn whole at the group's first
        # row from (..., group, 1), for the next, on the null arm as on the mixture arm
        monkeypatch.setattr(risk, "_chunk_size", lambda n: 5)
        law = spec.member_sums("maximum")
        segments, trials, rng = BLOCK_SEGMENTS, 12, SeededRng(163)
        keys, rows = segments[0], len(segments[0]) * 12
        whole, _ = _draw_block(law, segments, 0, rows, rng, trials, [])
        live = []
        for lo in range(0, rows, 3):
            part, _ = _draw_block(law, segments, lo, min(lo + 3, rows), rng, trials, live)
            np.testing.assert_array_equal(part, whole[lo : lo + 3])
            first, end, _, uniforms = live
            s, t = divmod(first, trials)
            np.testing.assert_array_equal(uniforms, law._codes(rng.generator(*keys[s].tolist(), t // 5, 1), end - first))

    @pytest.mark.parametrize("spec", MAXIMUM_CLASSES[:2], ids=repr)
    def test_the_maximum_keeps_the_cap_of_the_sums_maximum(self, spec):
        # as when the maximum reduced the drawn sums: refused below the class size
        size, instance = spec.cardinality(), ProblemInstance(spec, 1.0)
        with pytest.raises(CapExceededError):
            estimate_risk("maximum", instance, 10, SeededRng(164), emax0=3.0, cap=size - 1)
        with pytest.raises(CapExceededError):
            estimate_emax0(spec, 10, SeededRng(164), cap=size - 1)
        assert estimate_risk("maximum", instance, 10, SeededRng(164), emax0=3.0, cap=size).trials == 10

    def test_a_row_is_its_members_sum_or_the_largest_other(self):
        # the law's formula on hand-set draws: g, then h, and a uniform whose
        # maximum of the other N - 1 = 4 standard normals is 1.5
        law = make_class("stars", m=5).member_sums("maximum")
        u = float(norm.cdf(1.5) ** 4)
        Z = np.array([[0.2, 0.3], [2.0, -0.5], [0.2, 0.3]])
        got = law._observe(Z.copy(), np.array([1, 2]), np.full(3, u), np.array([0.5, 0.0]))
        s = math.sqrt(3.0)
        np.testing.assert_allclose(got, [
            0.3 + s * 1.5,                          # null row: the largest other
            -0.5 + 0.5 + max(s * 2.0 + 0.5 * 3, s * 1.5),  # h + mu + max(s g + mu (K - 1), s M)
            0.3 + s * 1.5,                          # a mixture row at mu = 0 is a null row
        ], rtol=1e-14)


class TestScan:
    def test_interpolation_picks_first_half_crossing(self):
        assert _interpolate_half([0.0, 1.0], [0.8, 0.2]) == pytest.approx(0.5)
        assert _interpolate_half([0.0, 1.0, 2.0], [0.9, 0.5, 0.1]) == pytest.approx(1.0)
        assert _interpolate_half([0.0, 1.0], [0.4, 0.3]) is None
        assert _interpolate_half([0.0, 1.0], [0.9, 0.8]) is None
        # flat at exactly one half: the left endpoint wins
        assert _interpolate_half([2.0, 3.0], [0.5, 0.5]) == 2.0

    def test_scan_brackets_crossing(self):
        spec = make_class("disjoint", N=4, K=4)
        curve = scan_critical_mu(
            spec, "averaging", [0.1, 0.8, 1.6, 2.4, 3.2], 4_000, SeededRng(90)
        )
        assert curve.critical_mu is not None
        assert 0.1 < curve.critical_mu < 3.2
        totals = [e.total for e in curve.estimates]
        assert totals[0] > 0.5 > totals[-1]

    def test_scan_requires_increasing_grid(self):
        spec = make_class("stars", m=4)
        with pytest.raises(ValueError):
            scan_critical_mu(spec, "optimal", [0.5, 0.5], 10, SeededRng(0))
        with pytest.raises(ValueError, match="mu_grid must be nonempty"):
            scan_critical_mu(spec, "optimal", [], 10, SeededRng(0))

    def test_scan_reproducible(self):
        spec = make_class("stars", m=4)
        a = scan_critical_mu(spec, "optimal", [0.3, 1.0], 400, SeededRng(91))
        b = scan_critical_mu(spec, "optimal", [0.3, 1.0], 400, SeededRng(91))
        assert a == b

    def test_maximum_scan_defaults_emax0_to_cap(self):
        spec = make_class("disjoint", N=4, K=2)
        curve = scan_critical_mu(spec, "maximum", [0.2, 4.0], 500, SeededRng(92))
        assert curve.estimates[-1].total < 0.2


class TestSubclassComparisons:
    def test_monotonicity_holds_for_ksets(self):
        spec = make_class("ksets", n=6, K=2)
        rep = monotonicity_check(spec, 0.5, [0.5, 1.2, 2.0], 4_000, SeededRng(95))
        assert rep.subclass_size == round(0.5 * 15)
        assert not rep.any_violation
        assert len(rep.subclass_risk) == len(rep.class_risk) == 3

    def test_monotonicity_check_golden_repr(self):
        # no CLI path runs monotonicity_check, so its exact report is pinned
        # here: the drawn subclass, both risk streams and the verdicts
        rep = monotonicity_check(make_class("ksets", n=8, K=2), 0.4, [0.5, 1.5], 300, SeededRng(5))
        assert repr(rep) == (
            "MonotonicityReport(mu_grid=(0.5, 1.5), class_size=28, subclass_size=11, "
            "subclass_risk=(RiskEstimate(type1=0.4, se_type1=0.0282842712474619, "
            "type2=0.4033333333333333, se_type2=0.028322873886404698, total=0.8033333333333333, "
            "se_total=0.040027305494939144, trials=300), RiskEstimate(type1=0.25666666666666665, "
            "se_type1=0.02521830610812239, type2=0.19333333333333333, se_type2=0.022800259907550437, "
            "total=0.44999999999999996, se_total=0.033997276579379336, trials=300)), "
            "class_risk=(RiskEstimate(type1=0.42333333333333334, se_type1=0.028526141357371502, "
            "type2=0.39666666666666667, se_type2=0.02824430457173164, total=0.8200000000000001, "
            "se_total=0.04014326196862285, trials=300), RiskEstimate(type1=0.25333333333333335, "
            "se_type1=0.025110127807689838, type2=0.29333333333333333, "
            "se_type2=0.026286174369104437, total=0.5466666666666666, "
            "se_total=0.03635218674965072, trials=300)), violated=(False, False))"
        )

    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_monotonicity_refuses_a_fraction_outside_zero_to_one(self, fraction):
        with pytest.raises(ValueError, match=r"subclass_fraction must be in \(0, 1\]"):
            monotonicity_check(make_class("ksets", n=6, K=2), fraction, [0.5], 10, SeededRng(0))

    def test_monotonicity_refuses_asymmetric_class(self):
        with pytest.raises(AsymmetricClassError):
            monotonicity_check(make_class("trees", m=4), 0.5, [0.5], 10, SeededRng(0))
        with pytest.raises(AsymmetricClassError):
            monotonicity_check(
                make_class("grid", sqrt_n=3, sqrt_K=2), 0.5, [0.5], 10, SeededRng(0)
            )

    def test_nonmonotonicity_demo_shows_reversal(self):
        rep = nonmonotonicity_demo(50, 0.35, 400, SeededRng(20260819))
        assert rep.n == 51**2
        assert rep.mu == pytest.approx(math.sqrt(math.log(4 * 51 * 0.35**2) / 51))
        assert rep.gap == pytest.approx(rep.risk_disjoint.total - rep.risk_union.total)
        assert rep.gap > 5 * rep.gap_se  # the subclass really is harder
        assert rep.risk_witness_averaging.total < rep.risk_disjoint.total
        assert not rep.side_condition_holds
        assert rep.side_condition_rhs == pytest.approx(math.sqrt(8 / 50 * math.log(2 / 0.35)))

    def test_nonmonotonicity_demo_validation(self):
        with pytest.raises(ValueError):
            nonmonotonicity_demo(1, 0.5, 10, SeededRng(0))
        with pytest.raises(ValueError):
            nonmonotonicity_demo(8, 1.0, 10, SeededRng(0))
        with pytest.raises(ValueError):
            nonmonotonicity_demo(2, 0.1, 10, SeededRng(0))  # 4(K+1)eps^2 <= 1


class TestSerialization:
    def test_fmt17_is_shortest_roundtrip(self):
        assert fmt17(0.25) == "0.25"
        assert fmt17(1 / 3) == "0.33333333333333331"
        assert float(fmt17(math.pi)) == math.pi

    def test_csv_golden_snapshot(self):
        rows = [(0.5, RiskEstimate.from_counts(1, 1, 4))]
        got = render_risk_rows("csv", rows, {"a": 1}, "combidetect.risk.v1")
        assert got == (
            "#schema=combidetect.risk.v1\n"
            "#version=0.4.0\n"
            '#config={"a":1}\n'
            "mu,type1,se1,type2,se2,total,se_total,trials\n"
            "0.5,0.25,0.21650635094610965,0.25,0.21650635094610965,"
            "0.5,0.30618621784789724,4\n"
        )

    def test_csv_has_lf_endings_and_no_timestamp(self):
        rows = [(1.0, RiskEstimate.from_counts(3, 2, 10))]
        text = render_risk_rows("csv", rows, {}, "combidetect.risk.v1")
        assert "\r" not in text
        assert "20" not in text.split("\n")[0]  # schema line carries no date

    def test_curve_csv_footer_carries_critical_mu(self):
        spec = make_class("disjoint", N=2, K=2)
        curve = scan_critical_mu(spec, "averaging", [0.1, 5.0], 400, SeededRng(96))
        text = render_curve("csv", curve, {"seed": 96})
        last = text.rstrip("\n").split("\n")[-1]
        assert last.startswith("#critical_mu=")
        assert last != "#critical_mu=none"
        parsed = json.loads(render_curve("json", curve, {"seed": 96}))
        assert parsed["critical_mu"] == pytest.approx(curve.critical_mu)
        assert parsed["schema"] == "combidetect.scan.v1"

    def test_json_round_trip(self):
        rows = [(0.7, RiskEstimate.from_counts(5, 9, 50))]
        doc = json.loads(render_risk_rows("json", rows, {"seed": 3}, "combidetect.risk.v1"))
        assert doc["config"] == {"seed": 3}
        r = doc["results"][0]
        assert r["mu"] == 0.7
        assert r["type1"] == pytest.approx(0.1)
        assert r["trials"] == 50

    def test_csv_rows_parse_back_to_exact_floats(self):
        e = RiskEstimate.from_counts(7, 13, 97)
        text = render_risk_rows("csv", [(0.123456789, e)], {}, "combidetect.risk.v1")
        data = text.strip().split("\n")[-1].split(",")
        assert float(data[0]) == 0.123456789
        assert float(data[1]) == e.type1
        assert float(data[2]) == e.se_type1
        assert float(data[6]) == e.se_total


class TestEmaxCap:
    def test_cap_formula(self):
        spec = make_class("ksets", n=10, K=3)
        assert emax_upper_cap(spec) == pytest.approx(
            math.sqrt(2 * 3 * math.log(math.comb(10, 3)))
        )
