"""Structured kernels against the enumeration path they replace.

``PerfectMatchings`` evaluates both batch hooks by a subset DP over column
masks, ``SpanningTrees`` evaluates the likelihood ratio by a log-domain
matrix-tree elimination and the maximum by Prim's algorithm, and ``Cliques``
with k = 3, 4 both by a dense contraction over vertex pairs.  Enumeration
(``SetClass``'s generic hooks over ``member_matrix``) and a 50-digit
``mpmath`` sum are the references.  Every maximum adds a member's weights in
the enumeration's order, its sorted indices left to right, so enumeration is
the bit-for-bit reference of the matchings, trees and clique maxima; the
assignment solver and Kruskal's algorithm, which add in that order too, are
the references past enumeration.  A lone row gets the bits its row has in a
block, for every family and both hooks.  The enumeration path itself is
pinned to numpy's 3-D gather sum, bit for bit.
"""

import functools
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combidetect import ProblemInstance, SeededRng, clique_bounds, estimate_bayes_risk, estimate_emax0, estimate_risk
from combidetect import classes
from combidetect._assignment import assignment_value
from combidetect.classes import (
    Cliques,
    DisjointSets,
    ExplicitClass,
    GridSquares,
    KSets,
    PerfectMatchings,
    SetClass,
    SpanningTrees,
    Stars,
)
from combidetect.cli import main
from combidetect.core import CapExceededError
from combidetect.rules import _decide, maximum_test

FAMILIES = {"matchings": PerfectMatchings, "trees": SpanningTrees, "cliques": Cliques}

#: (family, parameters) of every class the differential test draws from
KERNEL_CASES = [
    *((family, (m,)) for family in ("matchings", "trees") for m in range(2, 8)),
    *(("cliques", (m, k)) for k in (3, 4) for m in range(4, 9)),
]


@functools.cache
def spec_of(family: str, *params: int) -> SetClass:
    spec = FAMILIES[family](*params)
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


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(KERNEL_CASES),
    mu=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.01, 1.0, 4.0]),
)
def test_log_mean_exp_matches_enumeration(case, mu, seed, scale):
    spec = spec_of(case[0], *case[1])
    X = scale * np.random.default_rng(seed).standard_normal((4, spec.n))
    got = kernel_log_mean_exp(spec, mu, X)
    np.testing.assert_allclose(got, enumerated_log_mean_exp(spec, mu, X), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "family,params",
    [
        pytest.param("trees", (5,), id="trees-5"),
        pytest.param("matchings", (4,), id="matchings-4"),
        pytest.param("cliques", (6, 3), id="cliques-6-3"),
        pytest.param("cliques", (7, 4), id="cliques-7-4"),
    ],
)
def test_log_mean_exp_matches_50_digit_reference(family, params):
    spec = spec_of(family, *params)
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


@pytest.mark.parametrize("m", [*range(2, 9), 10, 12, classes._MAX_DP_M])
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


def test_assignment_value_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="weight matrix must be square"):
        assignment_value(np.zeros((2, 3)))


@pytest.mark.parametrize("m", range(2, 9))
def test_matchings_max_matches_enumeration(m):
    spec = spec_of("matchings", m)
    gen = np.random.default_rng(m)
    X = np.concatenate([
        gen.standard_normal((300, spec.n)),
        # integer weights tie many permutations
        gen.integers(-2, 3, size=(60, spec.n)).astype(np.float64),
    ])
    assert np.array_equal(spec.max_values_batch(X).view(np.int64), SetClass.max_values_batch(spec, X).view(np.int64))


def enumerated_max(spec: SetClass, X: np.ndarray, rows_per_gather: int = 50) -> np.ndarray:
    M = spec.member_matrix()
    return np.concatenate([
        X[lo : lo + rows_per_gather, M].sum(axis=2).max(axis=1) for lo in range(0, X.shape[0], rows_per_gather)
    ])


def kruskal_max(spec: SpanningTrees, x: np.ndarray) -> float:
    """Kruskal's algorithm with a union-find, the chosen edges added in edge
    id order, left to right: the trees maximum before Prim's algorithm
    replaced it, in the enumeration's summation order."""
    edges = classes.complete_graph_edges(spec.m)
    parent = list(range(spec.m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    chosen = []
    for e in np.argsort(-x, kind="stable"):
        ra, rb = find(int(edges[e, 0])), find(int(edges[e, 1]))
        if ra != rb:
            parent[ra] = rb
            chosen.append(int(e))
    return float(np.cumsum(x[np.sort(chosen)])[-1])


@pytest.mark.parametrize("m", range(2, 8))
def test_trees_max_is_bitwise_the_enumerated_max(m):
    spec = spec_of("trees", m)
    gen = np.random.default_rng(200 + m)
    rows = 2000 if m <= 6 else 500
    X = gen.standard_normal((rows, spec.n)) * 10.0 ** gen.integers(-3, 4, size=(rows, spec.n))
    assert np.array_equal(spec.max_values_batch(X), enumerated_max(spec, X))


@pytest.mark.parametrize("m", range(2, 8))
def test_trees_max_matches_enumeration_on_ties(m):
    # integer weights tie many trees; every maximum tree has the same sum
    spec = spec_of("trees", m)
    X = np.random.default_rng(300 + m).integers(-2, 3, size=(500, spec.n)).astype(np.float64)
    assert np.array_equal(spec.max_values_batch(X), enumerated_max(spec, X))


@pytest.mark.parametrize("m", [12, 20])
def test_trees_max_is_bitwise_kruskal_past_enumeration(m):
    # K >= 8, where numpy's .sum would add pairwise; both add left to right
    spec = SpanningTrees(m)
    X = np.random.default_rng(400 + m).standard_normal((300, spec.n))
    assert np.array_equal(spec.max_values_batch(X), [kruskal_max(spec, x) for x in X])


#: small classes, and 4-cliques at m = 12, 16 and 20, where the pair bound prunes
CLIQUE_MAX_CASES = [(m, k) for k in (3, 4) for m in range(4, 10)] + [(m, 4) for m in (12, 16, 20)]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CLIQUE_MAX_CASES),
    seed=st.integers(0, 2**32 - 1),
    weights=st.sampled_from([0.01, 1.0, 4.0, "integer"]),
)
def test_clique_max_is_bitwise_the_enumerated_max(case, seed, weights):
    spec = spec_of("cliques", *case)
    gen = np.random.default_rng(seed)
    if weights == "integer":
        # integer weights tie many cliques; every maximum clique has the same sum
        X = gen.integers(-2, 3, size=(6, spec.n)).astype(np.float64)
    else:
        X = weights * gen.standard_normal((6, spec.n))
    got = spec.max_values_batch(X)
    assert np.array_equal(got, enumerated_max(spec, X))
    for r in range(X.shape[0]):
        assert np.array_equal(spec.max_values_batch(X[r : r + 1]), got[r : r + 1])


def test_clique_max_is_bitwise_the_enumeration_at_the_a9_class():
    spec = Cliques(63, 4)  # 595,665 members
    gen = np.random.default_rng(63)
    X = gen.standard_normal((64, spec.n)) * 10.0 ** gen.integers(-3, 4, size=(64, spec.n))
    # A9's alternative: a sampled member shifted by its upper mu, which the
    # lower bound finds early; and Gaussian rows at the edges of the range
    planted = gen.standard_normal((8, spec.n))
    planted[np.arange(8)[:, None], spec.sample_rows(gen, 8)] += clique_bounds(63, 4, 0.2)[0]
    scaled = gen.standard_normal((8, spec.n)) * np.repeat([1e-300, 1e300], 4)[:, None]
    # the worst case, where every pair reaches the lower bound: constant rows,
    # and integer weights in -2..2, which tie many cliques at the maximum
    constant = np.repeat([[-0.7], [0.0], [1.25], [3.0]], spec.n, axis=1)
    ties = gen.integers(-2, 3, size=(4, spec.n)).astype(np.float64)
    X = np.concatenate([X, planted, scaled, constant, ties])
    # B = 8 is enum-heavy's block, B = 2 cli-mix's emax; rows are independent
    got = {B: spec.max_values_batch(X[:B]) for B in (1, 2, 8, 64, 88)}
    assert "_member_table" not in vars(spec)
    expect = SetClass.max_values_batch(spec, X)
    for B, values in got.items():
        assert np.array_equal(values, expect[:B]), B
    for r in range(64, 88):
        assert np.array_equal(spec.max_values_batch(X[r : r + 1]), expect[r : r + 1]), r


def test_clique_max_keeps_a_pair_whose_bound_rounds_below_its_clique():
    # Cliques(10,4): clique 6789 sums to 1 in the enumeration's order (each
    # -2^-54 ties to even), but its pair bound 1 + (g_8 + g_9) + x_89 rounds to
    # 1 - 2^-52.  Fifteen pairs in 0..5 bound at least 1 (x_67 = 1 lies above
    # them), and the best, 01, holds cliques of 1 - 2^-53: below the clique,
    # above its bound, so only the rounding margin keeps pair 67
    spec = Cliques(10, 4)
    pid, t = spec._pair_id0, 2.0**-54
    x = np.zeros(spec.n)
    x[pid[:6, 6:8].ravel()] = -1.0
    x[pid[0, 1]] = 1 - 2 * t
    x[pid[6, 7]] = 1.0
    x[pid[6:8, 8:10].ravel()] = -t
    assert spec.max_values_batch(x[None, :]) == enumerated_max(spec, x[None, :]) == 1.0


def test_clique_search_splits_groups_under_a_small_budget(monkeypatch):
    # integer ties keep many pairs a row, evaluated in chunks of at most
    # 40 // (2 C(11 - b, 2)) of one b's anchor pairs (one up to b = 5), and
    # one row a block
    spec = spec_of("cliques", 12, 4)
    X = np.random.default_rng(12).integers(-1, 2, size=(9, spec.n)).astype(np.float64)
    expect = enumerated_max(spec, X)
    monkeypatch.setattr(classes, "_CACHE_FLOATS", 40)
    assert np.array_equal(spec.max_values_batch(X), expect)


def test_clique_search_prunes_gaussian_rows(monkeypatch):
    # 8 Gaussian rows of A9's class evaluate about 2 to 4% of their anchor
    # pairs; a search that pruned nothing would evaluate them all
    spec = Cliques(63, 4)
    X = np.random.default_rng(2900).standard_normal((8, spec.n))
    evaluate, evaluated = Cliques._max4_pairs, []

    def spy(self, W, x, r, p, out):
        evaluated.append(r.size)
        return evaluate(self, W, x, r, p, out)

    monkeypatch.setattr(Cliques, "_max4_pairs", spy)
    spec.max_values_batch(X)
    assert 0 < sum(evaluated) <= 0.1 * 8 * math.comb(61, 2)


@pytest.mark.parametrize("m", [12, 63])
def test_clique_max_keeps_nan_and_infinities(m):
    # rows no bound can prune: NaN, +inf, -inf, both infinities and all -inf.
    # The enumeration gives nan, inf, the largest clique missing the -inf
    # edge, nan and -inf; a NaN row stays NaN, so the maximum rule refuses it
    spec = Cliques(m, 4)
    X = np.random.default_rng(m).standard_normal((6, spec.n))
    X[0, 3] = np.nan
    X[1, 5] = np.inf
    X[2, 7] = -np.inf
    X[3, [1, 9]] = np.inf, -np.inf
    X[4, :] = -np.inf
    got = spec.max_values_batch(X)  # silent: tier-1 makes a RuntimeWarning an error
    with np.errstate(invalid="ignore"):
        expect = SetClass.max_values_batch(spec, X)
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.isnan(got[[0, 3]]).all() and got[1] == np.inf and np.isfinite(got[2]) and got[4] == -np.inf
    for r in range(X.shape[0]):
        assert np.array_equal(spec.max_values_batch(X[r : r + 1]), got[r : r + 1], equal_nan=True)
    with pytest.raises(OverflowError, match="maximum statistic"):
        _decide("maximum", spec, X[:1], 1.0, 0.0, None)


def test_row_sub_blocks_do_not_change_values(monkeypatch):
    X = np.random.default_rng(9).standard_normal((37, 49))
    pm, st7, cl, cl3 = PerfectMatchings(7), SpanningTrees(7), Cliques(12, 4), Cliques(12, 3)
    X_tree, X_clique = X[:, : st7.n], np.concatenate([X, X], axis=1)[:, : cl.n]
    whole = (
        pm.max_values_batch(X),
        pm.log_mean_exp_batch(1.3, X),
        st7.log_mean_exp_batch(1.3, X_tree),
        st7.max_values_batch(X_tree),
        cl.max_values_batch(X_clique),
        cl3.max_values_batch(X_clique),
    )
    monkeypatch.setattr(classes, "_BLOCK_BUDGET", 1000)  # a few rows per sub-block
    monkeypatch.setattr(classes, "_CACHE_FLOATS", 1000)  # and a few a per sub-block
    split = (
        pm.max_values_batch(X),
        pm.log_mean_exp_batch(1.3, X),
        st7.log_mean_exp_batch(1.3, X_tree),
        st7.max_values_batch(X_tree),
        cl.max_values_batch(X_clique),
        cl3.max_values_batch(X_clique),
    )
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("x", [-0.7, 0.0, 1.25])
def test_constant_weights_beyond_enumeration(x):
    mu = 2.0
    # Cliques(120,4) has 8,214,570 members; its contraction holds 120 x C(120,2)
    pm, st30, cl = PerfectMatchings(12), SpanningTrees(30), Cliques(120, 4)
    for spec in (pm, st30, cl):
        with pytest.raises(CapExceededError):
            spec.member_matrix()
        X = np.full((3, spec.n), x)
        np.testing.assert_allclose(kernel_log_mean_exp(spec, mu, X), mu * spec.K * x, rtol=1e-12, atol=1e-12)
        assert "_member_table" not in vars(spec)
    for spec in (pm, st30, cl):
        assert np.allclose(spec.max_values_batch(np.full((2, spec.n), x)), spec.K * x, rtol=1e-12, atol=1e-12)
    assert "_member_table" not in vars(cl)


def test_matchings_cap_bounds_the_dp_states():
    spec = PerfectMatchings(8)  # 2^8 = 256 mask states
    X = np.random.default_rng(4).standard_normal((20, spec.n))
    for cap in (100, 255):
        with pytest.raises(CapExceededError) as exc:
            spec.log_mean_exp_batch(1.0, X, cap=cap)
        assert str(exc.value) == f"the subset DP has 256 mask states, enumeration capped at {cap}"
    # refused even where the m! members would fit: 3! = 6 but 2^3 = 8 states
    small = PerfectMatchings(3)
    with pytest.raises(CapExceededError) as exc:
        small.log_mean_exp_batch(1.0, X[:, :9], cap=6)
    assert (exc.value.cardinality, exc.value.cap) == (8, 6)
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)
    assert np.isfinite(small.log_mean_exp_batch(1.0, X[:, :9], cap=8)).all()
    assert np.array_equal(spec.log_mean_exp_batch(1.0, X, cap=256), spec.log_mean_exp_batch(1.0, X))
    # the cap does not bound the maximum, whose path depends on m only
    assert np.array_equal(spec.max_values_batch(X, cap=100), spec.max_values_batch(X))


#: every family's likelihood-ratio kernel, the generic enumeration among them,
#: and cliques past the contraction (k = 5) and on it (k = 3, 4)
PER_ROW_MU_CASES = [
    DisjointSets(6, 2), KSets(9, 3), Stars(7), PerfectMatchings(5), SpanningTrees(6),
    Cliques(7, 3), Cliques(8, 4), Cliques(8, 5), GridSquares(5, 2),
    ExplicitClass(10, np.array([[0, 1, 2], [3, 4, 5], [1, 5, 9], [2, 7, 8]])),
]


@pytest.mark.parametrize("spec", PER_ROW_MU_CASES, ids=repr)
def test_per_row_mu_equals_row_by_row_scalar_calls(spec):
    # runs of equal mu, zeros among them, as a (B,) array, a (B, 1) column and a list
    mus = np.array([0.0, 0.7, 0.7, 1.9, 0.0, 3.1, 0.7])
    X = np.random.default_rng(41).standard_normal((mus.size, spec.n))
    alone = [spec.log_mean_exp_batch(mu, X[r : r + 1])[0] for r, mu in enumerate(mus.tolist())]
    for column in (mus, mus[:, None], mus.tolist()):
        got = spec.log_mean_exp_batch(column, X)
        assert got.view(np.int64).tolist() == np.array(alone).view(np.int64).tolist()
    assert got[0] == got[4] == 0.0 and not np.signbit(got[[0, 4]]).any()
    # rows all at mu = 0 never reach the kernel
    assert spec.log_mean_exp_batch([0.0, 0.0], X[:2], cap=1).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("m,k", [(6, 3), (7, 4)])
def test_per_row_mu_reaches_the_clique_fallback(m, k):
    # the wide rows at mu = 2000 underflow the contraction and enumerate; the
    # other rows stay on it, and every row keeps its bits alone
    spec = spec_of("cliques", m, k)
    gen = np.random.default_rng(12)
    X = np.concatenate([4.0 * gen.standard_normal((3, spec.n)), 1e-3 * gen.standard_normal((2, spec.n))])
    mus = np.array([2000.0, 0.5, 2000.0, 2000.0, 0.0])
    got = spec.log_mean_exp_batch(mus, X)
    for r, mu in enumerate(mus.tolist()):
        assert np.array_equal(got[r : r + 1], spec.log_mean_exp_batch(mu, X[r : r + 1]))
    assert np.array_equal(got[[0, 2]], SetClass.log_mean_exp_batch(spec, 2000.0, X[[0, 2]]))


def test_per_row_mu_matchings_cap():
    # the subset DP is refused when any row's mu is not 0
    spec = PerfectMatchings(8)
    X = np.random.default_rng(4).standard_normal((3, spec.n))
    with pytest.raises(CapExceededError, match="the subset DP has 256 mask states"):
        spec.log_mean_exp_batch([0.0, 0.0, 1.0], X, cap=100)
    assert spec.log_mean_exp_batch([0.0, 0.0, 0.0], X, cap=100).tolist() == [0.0] * 3


def test_clique_cap_bounds_the_contraction_work_set():
    spec = Cliques(12, 4)  # 495 members; the contraction holds 12 x 66 = 792 entries per array
    X = np.random.default_rng(6).standard_normal((20, spec.n))
    # at the work set both tests run the contraction, which builds no member matrix
    assert np.array_equal(spec.log_mean_exp_batch(1.0, X, cap=792), spec.log_mean_exp_batch(1.0, X))
    maximum = spec.max_values_batch(X, cap=792)
    assert "_member_table" not in vars(spec)
    for cap in (400, 494):  # below both: the fallback enumerates, and refuses
        with pytest.raises(CapExceededError):
            spec.log_mean_exp_batch(1.0, X, cap=cap)
        with pytest.raises(CapExceededError):
            spec.max_values_batch(X, cap=cap)
    # between the two the contraction gives way to enumeration
    np.testing.assert_allclose(
        spec.log_mean_exp_batch(1.0, X, cap=600), spec.log_mean_exp_batch(1.0, X), rtol=1e-12, atol=1e-12
    )
    assert np.array_equal(spec.max_values_batch(X, cap=600), maximum)
    assert np.array_equal(spec.max_values_batch(X, cap=791), maximum)
    assert "_member_table" in vars(spec)


@pytest.mark.parametrize("m,k", [(6, 3), (7, 4)])
def test_clique_contraction_falls_back_to_enumeration_on_underflow(m, k):
    spec = spec_of("cliques", m, k)
    mu = 2000.0
    gen = np.random.default_rng(11)
    # wide rows underflow the shifted sum; the narrow ones stay on the contraction
    X = np.concatenate([4.0 * gen.standard_normal((3, spec.n)), 1e-3 * gen.standard_normal((2, spec.n))])
    got = kernel_log_mean_exp(spec, mu, X)
    np.testing.assert_allclose(got, enumerated_log_mean_exp(spec, mu, X), rtol=1e-10, atol=1e-12)
    shifted = np.exp(mu * (X[:, spec.member_matrix()].sum(axis=2) - spec.K * X.max(axis=1)[:, None])).sum(axis=1)
    assert np.all(shifted[:3] < classes._CONTRACTION_FLOOR) and np.all(shifted[3:] >= classes._CONTRACTION_FLOOR)
    assert np.array_equal(got[:3], SetClass.log_mean_exp_batch(spec, mu, X[:3]))
    # a row alone has the value it has inside the block
    for r in range(X.shape[0]):
        assert np.array_equal(spec.log_mean_exp_batch(mu, X[r : r + 1]), got[r : r + 1])


@pytest.mark.parametrize("m, k, mu, cap, seed, scale, enumerated", [
    (12, 4, 1.0, 600, 6, None, slice(None)),  # the work set past the cap
    (6, 3, 2000.0, None, 11, 4.0, slice(3)),  # wide rows underflow
    (7, 4, 2000.0, None, 11, 4.0, slice(3)),
], ids=["past-the-cap", "underflow-k3", "underflow-k4"])
def test_clique_fallbacks_enumerate_without_the_public_generic_hook(
    monkeypatch, m, k, mu, cap, seed, scale, enumerated
):
    # the rows the contraction does not decide go straight to the enumeration
    # body, with the bits of the generic hook, mu = 0 rows at exactly 0
    spec = Cliques(m, k)
    gen = np.random.default_rng(seed)
    if scale is None:
        X = gen.standard_normal((20, spec.n))
    else:
        X = np.concatenate([scale * gen.standard_normal((3, spec.n)), 1e-3 * gen.standard_normal((2, spec.n))])
    mus = np.full(X.shape[0], mu)
    mus[-1] = 0.0
    expect = [spec.log_mean_exp_batch(mu, X, cap), spec.log_mean_exp_batch(mus, X, cap)]
    generic = SetClass.log_mean_exp_batch(spec, mu, X[enumerated], cap)

    def refuse(*args, **kwargs):
        raise AssertionError("the public generic hook was called")

    monkeypatch.setattr(SetClass, "log_mean_exp_batch", refuse)
    got = [spec.log_mean_exp_batch(mu, X, cap), spec.log_mean_exp_batch(mus, X, cap)]
    for g, e in zip(got, expect):
        assert g.view(np.int64).tolist() == e.view(np.int64).tolist()
    assert np.array_equal(got[0][enumerated], generic)
    assert got[1][-1] == 0.0 and not np.signbit(got[1][-1])


def test_numpy_sums_a_short_last_axis_left_to_right():
    # (1e16 + 1) + 1 rounds to 1e16 twice; any other grouping gives 1e16 + 2
    assert np.array([[1e16, 1.0, 1.0]]).sum(axis=1)[0] == 1e16


@pytest.mark.parametrize("B", [1, 7, 300])
@pytest.mark.parametrize("weights", ["gaussian", "integer"])
def test_member_sums_match_the_gather_sum_bit_for_bit(monkeypatch, B, weights):
    gen = np.random.default_rng(B)
    rows = np.unique(np.sort([gen.choice(12, size=4, replace=False) for _ in range(40)], axis=1), axis=0)
    explicit = ExplicitClass(12, rows)
    for spec in (explicit, Cliques(7, 3), KSets(9, 3)):
        # chunks of 10 members, each filled in pieces of 3, 3, 3 and 1
        monkeypatch.setattr(classes, "_BLOCK_BUDGET", 10 * classes._BLOCK_ROWS * spec.K)
        monkeypatch.setattr(classes, "_GATHER_PIECE", 3 * B)
        if weights == "gaussian":
            X = gen.standard_normal((B, spec.n)) * 10.0 ** gen.integers(-6, 7, size=(B, spec.n))
        else:
            X = gen.integers(-2, 3, size=(B, spec.n)).astype(np.float64)
        M = spec.member_matrix()
        blocks = list(SetClass.member_sums_iter(spec, X))
        assert len(blocks) == -(-M.shape[0] // 10) > 1
        for i, blk in enumerate(blocks):
            ref = X[:, M[10 * i : 10 * (i + 1)]].sum(axis=2)
            assert np.array_equal(blk, ref) and blk.shape == ref.shape and blk.dtype == ref.dtype
            # a length-1 axis has no meaningful stride: for B = 1 compare layouts
            assert blk.strides == ref.strides or B == 1
            assert blk.flags.f_contiguous == ref.flags.f_contiguous
            assert blk.flags.c_contiguous == ref.flags.c_contiguous


#: (class, hooks): every family where its own kernels run, then the
#: enumeration's generic hooks, with one or (KSets(20,4)) several chunks
LONE_ROW_CASES = [
    (classes.DisjointSets(10, 3), classes.DisjointSets),
    (KSets(9, 3), KSets),
    (Stars(8), Stars),
    (PerfectMatchings(6), PerfectMatchings),
    (PerfectMatchings(classes._MAX_DP_M + 1), PerfectMatchings),  # the assignment solver
    (SpanningTrees(9), SpanningTrees),
    (Cliques(8, 3), Cliques),
    (Cliques(8, 4), Cliques),
    (GridSquares(6, 2), GridSquares),
    (ExplicitClass(12, np.array([[0, 1, 2], [3, 4, 5], [1, 5, 9], [2, 7, 11], [0, 6, 8], [4, 9, 10]])), ExplicitClass),
    (KSets(20, 4), SetClass),
    (Cliques(9, 5), Cliques),
    (Cliques(10, 2), Cliques),
]


def test_lone_row_cases_cover_every_family():
    assert set(classes.FAMILIES.values()) <= {type(spec) for spec, _ in LONE_ROW_CASES}


@pytest.mark.parametrize("case", range(len(LONE_ROW_CASES)), ids=[repr(spec) for spec, _ in LONE_ROW_CASES])
def test_a_lone_row_gets_the_bits_of_its_row_in_a_block(case):
    spec, hooks = LONE_ROW_CASES[case]
    gen = np.random.default_rng(500 + case)
    X = gen.standard_normal((20, spec.n)) * 10.0 ** gen.integers(-3, 2, size=(20, spec.n))
    for test in ("max", "lr"):
        def run(X):
            return hooks.max_values_batch(spec, X) if test == "max" else hooks.log_mean_exp_batch(spec, 1.3, X)

        for lo in range(0, X.shape[0], 5):  # 5-row blocks
            block = run(X[lo : lo + 5])
            for r in range(5):
                alone = run(X[lo + r : lo + r + 1])
                assert np.array_equal(alone.view(np.int64), block[r : r + 1].view(np.int64)), (test, lo + r)


#: one class or more of every family; every maximum but that of GridSquares
#: (a summed-area table) adds a member's weights in the enumeration's order
MAX_CASES = [
    DisjointSets(8, 8), DisjointSets(3, 2), KSets(10, 4), KSets(12, 9), Stars(9), PerfectMatchings(6),
    SpanningTrees(7), Cliques(8, 3), Cliques(8, 4), Cliques(8, 5), GridSquares(6, 3),
]


def test_max_cases_cover_every_family():
    assert set(classes.FAMILIES.values()) <= {type(spec) for spec in MAX_CASES}


@pytest.mark.parametrize("spec", MAX_CASES, ids=repr)
def test_every_maximum_against_its_explicit_class(spec):
    explicit = ExplicitClass(spec.n, spec.member_matrix())
    gen = np.random.default_rng(9)
    X = gen.standard_normal((300, spec.n)) * 10.0 ** gen.integers(-3, 2, size=(300, spec.n))
    got, ref = spec.max_values_batch(X), explicit.max_values_batch(X)
    if isinstance(spec, GridSquares):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("spec", [Cliques(9, 5), Stars(12)], ids=["cliques", "stars"])
def test_a_lone_row_has_the_member_sums_of_a_block(spec):
    # numpy sums a lone row's contiguous (1, N, K) gather pairwise once K >= 8,
    # but a block's gather left to right; member-major sums add left to right
    # for every row count, so the maximum rule gives a lone row the block's
    # statistic (K = 10 and 11 here)
    gen = np.random.default_rng(8)
    X = gen.standard_normal((5, spec.n)) * 10.0 ** gen.integers(-6, 7, size=(5, spec.n))
    block = np.concatenate(list(spec.member_sums_iter(X)), axis=1)
    assert np.array_equal(block, X[:, spec.member_matrix()].sum(axis=2))
    inst = ProblemInstance(spec, 1.0)
    batch = _decide("maximum", spec, X, 1.0, 0.0, None)[0]
    for r in range(X.shape[0]):
        assert np.array_equal(np.concatenate(list(spec.member_sums_iter(X[r : r + 1])), axis=1), block[r : r + 1])
        assert maximum_test(X[r], inst, 0.0).statistic == batch[r]


def test_trees_max_is_the_same_with_two_workers():
    spec = SpanningTrees(12)
    inst = ProblemInstance(spec, 1.5)
    one = estimate_risk("maximum", inst, 2100, SeededRng(79), emax0=23.0, workers=1)
    two = estimate_risk("maximum", inst, 2100, SeededRng(79), emax0=23.0, workers=2)
    assert one == two
    one = estimate_emax0(spec, 2100, SeededRng(80), workers=1)
    assert one == estimate_emax0(spec, 2100, SeededRng(80), workers=2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_workers_give_the_same_values(family):
    spec = Cliques(7, 4) if family == "cliques" else FAMILIES[family](5)
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
        "emax --class cliques --m 120 --k 4 --trials 2 --seed 5",
    ],
)
def test_likelihood_ratio_runs_past_the_old_enumeration_cap(capsys, argv):
    # 10!, 12^10 and C(120,4) exceed the default cap of 2,000,000 members;
    # the clique maximum (emax) runs without enumeration, as the LR does
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(f"#schema=combidetect.{argv.split()[0]}.v1\n")
