import itertools
import json
import math

import numpy as np
import pytest

from combidetect import (
    DegenerateParameterError,
    SeededRng,
    averaging_threshold,
    clique_bounds,
    dudley_bound,
    evaluate_bound,
    exact_overlap_mgf,
    greedy_cover,
    make_class,
    max_test_threshold,
    negass_threshold,
    pairs_risk_lower_bound,
    random_subclass_bound,
    symmetric_threshold,
    type1_bound_threshold,
    universal_threshold,
    vc_cover_bound,
)
from combidetect import bounds as bounds_module
from combidetect.bounds import PROPS, clique_admissible


class TestScalarThresholds:
    def test_universal_pin(self):
        assert universal_threshold(8) == pytest.approx(0.37926380822046607, rel=1e-14)

    def test_universal_shrinks_with_K(self):
        vals = [universal_threshold(K) for K in (1, 4, 16, 64)]
        assert vals == sorted(vals, reverse=True)

    def test_averaging_pin(self):
        assert averaging_threshold(100, 10, 0.2) == pytest.approx(
            4.2919320525786945, rel=1e-14
        )

    def test_max_test_pin(self):
        assert max_test_threshold(2.0, 49, 0.2) == pytest.approx(
            0.65394947689899717, rel=1e-14
        )

    def test_symmetric_pin(self):
        assert symmetric_threshold(45, 5, 0.3) == pytest.approx(
            0.76489343169587293, rel=1e-14
        )

    def test_negass_pin(self):
        # perfect matchings of K_{5,5}: n = 25, K = 5, m cancels
        assert negass_threshold(25, 5, 0.5) == pytest.approx(
            0.72566454656338591, rel=1e-14
        )

    @pytest.mark.parametrize("fn", [averaging_threshold, symmetric_threshold, negass_threshold])
    def test_delta_validation(self, fn):
        with pytest.raises(ValueError):
            fn(10, 2, 0.0)
        with pytest.raises(ValueError):
            fn(10, 2, 1.5)

    def test_max_test_requires_finite_emax0(self):
        with pytest.raises(ValueError):
            max_test_threshold(math.inf, 5, 0.2)


class TestPairsBound:
    def test_values(self):
        assert pairs_risk_lower_bound(1.0) == 1.0
        assert pairs_risk_lower_bound(1.04) == pytest.approx(0.9)
        assert pairs_risk_lower_bound(6.0) == 0.0  # clipped

    def test_rejects_invalid_mgf(self):
        with pytest.raises(ValueError):
            pairs_risk_lower_bound(0.99)

    def test_symmetric_threshold_inverts_relaxed_mgf(self):
        # the relaxed overlap MGF for a symmetric class is
        # 1 + (K/n) (e^{mu^2 K} - 1); at the symmetric threshold the induced
        # risk bound equals delta exactly
        for n, K, delta in ((45, 5, 0.3), (100, 4, 0.5), (24, 6, 0.1)):
            mu = symmetric_threshold(n, K, delta)
            relaxed = 1.0 + (K / n) * math.expm1(mu * mu * K)
            assert pairs_risk_lower_bound(relaxed) == pytest.approx(delta, abs=1e-12)

    def test_negass_threshold_inverts_relaxed_mgf(self):
        # negative association: MGF <= exp((K^2/n)(e^{mu^2} - 1))
        for n, K, delta in ((25, 5, 0.5), (81, 9, 0.25)):
            mu = negass_threshold(n, K, delta)
            relaxed = math.exp((K * K / n) * math.expm1(mu * mu))
            assert pairs_risk_lower_bound(relaxed) == pytest.approx(delta, abs=1e-12)

    def test_exact_mgf_gives_at_least_delta_for_symmetric_class(self):
        # the exact MGF is smaller than the relaxed one, so the bound is
        # at least delta at the symmetric threshold
        spec = make_class("stars", m=10)
        delta = 0.3
        mu = symmetric_threshold(spec.n, spec.K, delta)
        bound = pairs_risk_lower_bound(exact_overlap_mgf(spec, mu))
        assert bound >= delta - 1e-12

    def test_disjoint_exact_mgf(self):
        # Z in {0, K} with P(K) = 1/N: MGF = 1 + (e^{mu^2 K} - 1)/N
        spec = make_class("disjoint", N=6, K=4)
        mu = 0.7
        assert exact_overlap_mgf(spec, mu) == pytest.approx(
            1 + math.expm1(mu * mu * 4) / 6, rel=1e-12
        )


class TestCliqueBounds:
    def test_pins(self):
        up, lo = clique_bounds(63, 4, 0.2)
        assert up == pytest.approx(3.9902803744804144, rel=1e-14)
        assert lo == pytest.approx(0.71827800758336197, rel=1e-14)

    def test_admissibility_boundary(self):
        assert clique_admissible(63, 4)
        assert not clique_admissible(62, 4)
        with pytest.raises(ValueError, match="sqrt"):
            clique_bounds(62, 4, 0.2)

    def test_smallest_admissible_m_for_k4(self):
        admissible = [m for m in range(4, 80) if clique_admissible(m, 4)]
        assert min(admissible) == 63

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            clique_bounds(10, 1, 0.2)


class TestRandomSubclassBound:
    def test_median_zero_overlap_case(self):
        r = random_subclass_bound(10, 160, math.sqrt(20.0))
        assert r.value == pytest.approx(0.47985259121880812, rel=1e-13)
        assert not r.degenerate
        assert r.extras["second_term"] is None
        assert r.direction == "mu_threshold_for_risk_ge_delta"

    def test_verbatim_second_term_is_negative_and_flagged(self):
        r = random_subclass_bound(10, 160, 0.0)
        assert r.degenerate
        second = r.extras["second_term"]
        assert second == pytest.approx(-3.8709703872475440, rel=1e-13)
        assert r.extras["verbatim_min"] == second
        assert r.value == pytest.approx(0.47985259121880812, rel=1e-13)

    def test_small_subclass_is_degenerate(self):
        with pytest.raises(DegenerateParameterError, match="M <= 16"):
            random_subclass_bound(5, 16, math.sqrt(10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            random_subclass_bound(0, 20, 1.0)
        with pytest.raises(ValueError):
            random_subclass_bound(5, 1, 1.0)
        with pytest.raises(ValueError):
            random_subclass_bound(5, 20, 10.0)  # t beyond the diameter


def distance_matrix(spec):
    # canonical distances sqrt(2(K - |S ∩ T|)) between member_matrix rows
    members = [set(row) for row in spec.member_matrix().tolist()]
    N = len(members)
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            D[i, j] = math.sqrt(2 * (spec.K - len(members[i] & members[j])))
    return D


def exact_cover_number(D, t):
    N = D.shape[0]
    for size in range(1, N + 1):
        for centers in itertools.combinations(range(N), size):
            if np.all(D[list(centers)].min(axis=0) <= t + 1e-12):
                return size
    return N


def exact_packing_number(D, t):
    N = D.shape[0]
    best = 1
    for size in range(N, 0, -1):
        for chosen in itertools.combinations(range(N), size):
            sub = D[np.ix_(chosen, chosen)]
            if np.all(sub[np.triu_indices(size, 1)] >= t - 1e-12):
                return size
    return best


class TestCoverAndPacking:
    def test_greedy_cover_actually_covers(self):
        spec = make_class("ksets", n=6, K=3)
        D = distance_matrix(spec)
        for t in (0.5, 1.2, 1.5, 2.0, 2.4):
            cover = greedy_cover(spec, t)  # member_matrix row numbers
            assert np.all(D[cover].min(axis=0) <= t + 1e-12)

    def test_greedy_cover_upper_bounds_exact_covering_number(self):
        spec = make_class("cliques", m=5, k=3)
        D = distance_matrix(spec)
        for t in (1.0, 1.5, 2.0, 2.2):
            assert len(greedy_cover(spec, t)) >= exact_cover_number(D, t)

    def test_exact_sandwich_on_small_class(self):
        # covering <= packing <= covering at half radius
        spec = make_class("cliques", m=5, k=3)
        D = distance_matrix(spec)
        for t in (1.4, 2.0, 2.4):
            nt = exact_cover_number(D, t)
            mt = exact_packing_number(D, t)
            nt2 = exact_cover_number(D, t / 2)
            assert nt <= mt <= nt2

    def test_extremes(self):
        spec = make_class("stars", m=5)
        diam = math.sqrt(2 * (spec.K - 1))  # any two stars share one edge
        assert len(greedy_cover(spec, 0.0)) == 5
        assert len(greedy_cover(spec, diam)) == 1

    def test_disjoint_cover_is_all_or_one(self):
        spec = make_class("disjoint", N=7, K=3)
        t = math.sqrt(2 * spec.K)
        assert len(greedy_cover(spec, t - 1e-9)) == 7
        assert len(greedy_cover(spec, t)) == 1

    def test_cover_members_come_from_class_in_canonical_order(self):
        spec = make_class("grid", sqrt_n=4, sqrt_K=2)
        cover = greedy_cover(spec, 1.0)
        assert all(0 <= i < spec.cardinality() for i in cover)  # member_matrix rows
        assert cover == sorted(set(cover))  # distinct rows, in canonical order

    def test_negative_radius_refused(self):
        for radius in (-0.1, math.nan):
            with pytest.raises(ValueError):
                greedy_cover(make_class("stars", m=4), radius)


class TestDudley:
    def test_disjoint_closed_form(self):
        # cover size is exactly N on [0, sqrt(2K)), so the entropy integral
        # collapses to sqrt(2K) * sqrt(log N)
        spec = make_class("disjoint", N=8, K=4)
        expect = 0.5 * math.sqrt(8.0) * math.sqrt(math.log(8.0))
        assert dudley_bound(spec, 0.5) == pytest.approx(expect, rel=1e-12)
        assert dudley_bound(spec, 0.5, grid_points=200) == pytest.approx(expect, rel=1e-12)

    def test_linear_in_constant(self):
        spec = make_class("stars", m=6)
        assert dudley_bound(spec, 3.0) == pytest.approx(3 * dudley_bound(spec, 1.0))

    def test_one_cover_per_reached_distance(self, monkeypatch):
        # KSets(12,3) has 4 distinct distances, so the 64 grid radii need at
        # most 4 covers; the value is the one a fresh cover per radius gives
        spec = make_class("ksets", n=12, K=3)
        calls = []
        real = bounds_module.greedy_cover
        monkeypatch.setattr(
            bounds_module, "greedy_cover", lambda *a: calls.append(a) or real(*a)
        )
        assert dudley_bound(spec, 1.0) == 4.795895440198799
        assert len(calls) <= 4

    def test_validation(self):
        spec = make_class("stars", m=4)
        with pytest.raises(ValueError):
            dudley_bound(spec, 0.0)
        with pytest.raises(ValueError):
            dudley_bound(spec, math.nan)
        with pytest.raises(ValueError):
            dudley_bound(spec, 1.0, grid_points=0)


class TestVcCover:
    def test_pin(self):
        assert vc_cover_bound(100, 2, 1.5) == pytest.approx(476101.61595704101, rel=1e-12)

    def test_monotone_in_t(self):
        assert vc_cover_bound(50, 3, 0.5) > vc_cover_bound(50, 3, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            vc_cover_bound(50, 0, 1.0)
        with pytest.raises(ValueError):
            vc_cover_bound(50, 2, 0.0)
        with pytest.raises(ValueError):
            vc_cover_bound(50, 2, math.nan)

    @pytest.mark.parametrize("n,V,t", [(1, 1, 1e-200), (1, 1, 1e-160), (10**6, 40, 1e-3)])
    def test_value_past_the_float_range_is_refused(self, n, V, t):
        # t**2 underflows to 0, the quotient overflows, or the power does
        with pytest.raises(OverflowError, match="past the float range"):
            vc_cover_bound(n, V, t)


class TestType1CoverThreshold:
    def test_stars_cover_is_whole_class(self):
        spec = make_class("stars", m=20)
        r = type1_bound_threshold(spec, 0.1, 2_000, SeededRng(60))
        assert r.extras["cover_size"] == 20  # stars overlap in one edge only
        floor = math.sqrt(32 * math.log(20.0) / spec.K)
        assert r.value >= floor
        assert r.extras["sudakov_cap"] == pytest.approx(
            2 * math.sqrt(2 * spec.K * math.log(20)) / spec.K
        )
        assert r.direction == "mu_threshold_for_risk_le_delta"
        assert r.inputs["seed"] == 60

    def test_single_member_cover_drops_sudakov_term(self):
        spec = make_class("disjoint", N=1, K=4)
        r = type1_bound_threshold(spec, 0.2, 2_000, SeededRng(61))
        assert r.extras["cover_size"] == 1
        assert r.extras["sudakov_cap"] == 0.0
        # the cover maximum is a single mean-zero sum, so the threshold is
        # nearly the pure concentration term
        assert r.value == pytest.approx(math.sqrt(32 * math.log(10.0) / 4), abs=0.1)

    def test_deterministic(self):
        spec = make_class("grid", sqrt_n=5, sqrt_K=2)
        a = type1_bound_threshold(spec, 0.1, 1_000, SeededRng(62))
        b = type1_bound_threshold(spec, 0.1, 1_000, SeededRng(62))
        assert a == b


class TestEvaluateBound:
    def test_routes_every_prop(self):
        spec = make_class("stars", m=6)
        rng = SeededRng(5)
        cases = {
            "averaging": dict(n=100, K=10, delta=0.2),
            "maxtest": dict(emax0=2.0, K=49, delta=0.2),
            "universal": dict(K=8),
            "pairs": dict(mgf=1.2),
            "symmetric": dict(n=45, K=5, delta=0.3),
            "negass": dict(n=25, K=5, delta=0.5),
            "cliques": dict(m=63, k=4, delta=0.2),
            "random-subclass": dict(K=10, M=160, t=0.0),
            "vc-cover": dict(n=100, V=2, t=1.5),
            "dudley": dict(constant=1.5),
            "type1-cover": dict(delta=0.1),
        }
        assert set(cases) == set(PROPS)
        for prop, params in cases.items():
            r = evaluate_bound(prop, params, spec=spec, rng=rng, trials=500)
            assert r.name == prop
            assert np.isfinite(r.value)
            doc = json.loads(r.render("json"))
            assert doc["schema"] == "combidetect.bound.v1"

    def test_missing_parameters_are_named(self):
        with pytest.raises(ValueError, match="averaging needs parameters: K"):
            evaluate_bound("averaging", dict(n=100, delta=0.2))

    def test_unknown_prop(self):
        with pytest.raises(ValueError, match="unknown proposition"):
            evaluate_bound("bogus", {})

    def test_class_dependent_props_require_spec(self):
        with pytest.raises(ValueError):
            evaluate_bound("dudley", dict(constant=1.0))
        with pytest.raises(ValueError):
            evaluate_bound("type1-cover", dict(delta=0.1), spec=make_class("stars", m=4))
