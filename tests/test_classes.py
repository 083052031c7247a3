import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from combidetect import (
    CapExceededError,
    Cliques,
    ExplicitClass,
    KSets,
    SeededRng,
    SetClass,
    SpanningTrees,
    Stars,
    estimate_overlap_mgf,
    exact_overlap_mgf,
    make_class,
)
from combidetect import classes
from combidetect.classes import FAMILIES, complete_graph_edges

# family name -> (constructor kwargs, expected n, K, N)
SMALL = {
    "disjoint": (dict(N=5, K=3), 15, 3, 5),
    "ksets": (dict(n=7, K=3), 7, 3, 35),
    "stars": (dict(m=5), 10, 4, 5),
    "matchings": (dict(m=4), 16, 4, 24),
    "trees": (dict(m=4), 6, 3, 16),
    "cliques": (dict(m=6, k=3), 15, 3, 20),
    "grid": (dict(sqrt_n=4, sqrt_K=2), 16, 4, 9),
}


#: a class given by its member rows, sampled by rank
EXPLICIT = ExplicitClass(6, np.array([[2, 3], [0, 1], [1, 4]]))

#: spanning-tree classes past enumeration, sampled next to the small ones
BIG_TREES = {f"trees-{m}": SpanningTrees(m) for m in (12, 20, 40)}


def edge_ids(m):
    return {(int(a), int(b)): i for i, (a, b) in enumerate(complete_graph_edges(m))}


def textbook_pruefer_tree(m, seq):
    """Sorted edge ids of the tree whose Pruefer code is ``seq``: join the
    smallest leaf to each entry in turn, then the last two vertices."""
    eid = edge_ids(m)
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    ids = []
    for v in seq:
        leaf = min(u for u in range(m) if degree[u] == 1)
        ids.append(eid[min(leaf, v), max(leaf, v)])
        degree[leaf] -= 1
        degree[v] -= 1
    a, b = (u for u in range(m) if degree[u] == 1)
    return sorted(ids + [eid[a, b]])


def find_root(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a


def is_acyclic(m, edges, ids):
    """Whether the edges ``edges[ids]`` of K_m close no cycle: m - 1 of them
    make a spanning tree exactly when this holds."""
    parent = list(range(m))
    for e in ids:
        ra, rb = (find_root(parent, v) for v in edges[e])
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def filtered_tree_members(m):
    """Every (m-1)-edge combination of K_m without a cycle, in combination
    order: the oracle of the Pruefer-built member matrix."""
    edges = complete_graph_edges(m).tolist()
    rows = [c for c in itertools.combinations(range(len(edges)), m - 1) if is_acyclic(m, edges, c)]
    return np.array(rows, dtype=np.int32).reshape(-1, m - 1)


def small(family):
    return make_class(family, **SMALL[family][0])


@pytest.fixture(params=sorted(SMALL))
def family(request):
    return request.param


class TestRegistry:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_class("pentagons", n=5)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing"):
            make_class("ksets", n=9)

    def test_extra_parameter(self):
        with pytest.raises(ValueError, match="does not take"):
            make_class("stars", m=5, K=3)

    @pytest.mark.parametrize("fam", sorted(SMALL))
    def test_non_integral_parameters_are_refused(self, fam):
        # each parameter in turn, integral-looking or not, is never truncated
        kwargs = SMALL[fam][0]
        for p, v in kwargs.items():
            for bad in (v + 0.7, float(v)):
                with pytest.raises(TypeError):
                    make_class(fam, **kwargs | {p: bad})
                with pytest.raises(TypeError):
                    FAMILIES[fam](**kwargs | {p: bad})
        with pytest.raises(TypeError):
            ExplicitClass(6.0, np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("fam", sorted(SMALL))
    def test_numpy_integer_parameters_are_accepted(self, fam):
        kwargs = SMALL[fam][0]
        spec = make_class(fam, **{p: np.int64(v) for p, v in kwargs.items()})
        assert spec.to_params() == small(fam).to_params()
        assert all(type(getattr(spec, p)) is int for p in kwargs)
        assert ExplicitClass(np.int32(6), np.array([[0, 1], [2, 3]])).n == 6

    @pytest.mark.parametrize(
        "fam,kwargs",
        [
            ("disjoint", dict(N=0, K=2)),
            ("ksets", dict(n=4, K=5)),
            ("stars", dict(m=2)),
            ("matchings", dict(m=1)),
            ("trees", dict(m=1)),
            ("cliques", dict(m=3, k=1)),
            ("cliques", dict(m=3, k=4)),
            ("grid", dict(sqrt_n=2, sqrt_K=3)),
        ],
    )
    def test_degenerate_parameters(self, fam, kwargs):
        with pytest.raises(ValueError):
            make_class(fam, **kwargs)


class TestGeometry:
    def test_shape(self, family):
        _, n, K, N = SMALL[family]
        spec = small(family)
        assert (spec.n, spec.K, spec.cardinality()) == (n, K, N)

    def test_cardinality_closed_forms(self):
        assert make_class("disjoint", N=7, K=2).cardinality() == 7
        assert make_class("ksets", n=10, K=4).cardinality() == math.comb(10, 4)
        assert make_class("stars", m=9).cardinality() == 9
        assert make_class("matchings", m=5).cardinality() == 120
        assert make_class("trees", m=5).cardinality() == 125
        assert make_class("cliques", m=8, k=4).cardinality() == math.comb(8, 4)
        assert make_class("grid", sqrt_n=10, sqrt_K=3).cardinality() == 64

    def test_members_are_sorted_distinct_in_range(self, family):
        spec = small(family)
        M = spec.member_matrix()
        assert M.shape == (spec.cardinality(), spec.K)
        assert np.all(M[:, 1:] > M[:, :-1]) if spec.K > 1 else True
        assert M.min() >= 0 and M.max() < spec.n
        assert len({tuple(r) for r in M.tolist()}) == M.shape[0]

    def test_enumeration_is_lexicographic(self, family):
        spec = small(family)
        rows = [tuple(r) for r in spec.member_matrix().tolist()]
        assert rows == sorted(rows)


#: one small class of every family, and one given by its rows, each sampled
#: against its whole member matrix
UNIFORM_CASES = [
    KSets(6, 3), Cliques(6, 3), make_class("matchings", m=4), SpanningTrees(5),
    make_class("grid", sqrt_n=4, sqrt_K=2), Stars(6), make_class("disjoint", N=4, K=2), EXPLICIT,
]


def textbook_floyd(n, k, draws):
    """Floyd's k-subset of range(n) from its draws t_i in [0, n - k + i]."""
    chosen = []
    for i, t in enumerate(draws):
        chosen.append(n - k + i if t in chosen else t)
    return sorted(chosen)


def textbook_shuffle(m, draws):
    """Fisher-Yates: step i swaps entry i with entry i + r_i."""
    perm = list(range(m))
    for i, r in enumerate(draws):
        perm[i], perm[i + r] = perm[i + r], perm[i]
    return perm


class TestSampling:
    def test_samples_are_members(self, family):
        spec = small(family)
        gen = SeededRng(77).child(sorted(SMALL).index(family)).generator()
        members = {tuple(r) for r in spec.member_matrix().tolist()}
        rows = spec.sample_rows(gen, 200)
        assert rows.shape == (200, spec.K)
        assert {tuple(r) for r in rows.tolist()} <= members

    @pytest.mark.parametrize("spec", UNIFORM_CASES, ids=repr)
    def test_sampler_is_exactly_uniform(self, spec):
        # an exhaustive chi-square over every member
        N = spec.cardinality()
        rank = {tuple(r): i for i, r in enumerate(spec.member_matrix().tolist())}
        draws = max(4000, 300 * N)
        gen = SeededRng(101).child(UNIFORM_CASES.index(spec)).generator()
        counts = np.zeros(N)
        for row in spec.sample_rows(gen, draws).tolist():
            counts[rank[tuple(row)]] += 1
        p = stats.chisquare(counts).pvalue
        assert p > 1e-3, f"{spec!r}: chi-square p = {p}"

    def test_sampling_with_seeded_rng_is_deterministic(self):
        spec = small("trees")
        a = spec.sample_rows(SeededRng(9).child(4).generator(), 1)
        b = spec.sample_rows(SeededRng(9).child(4).generator(), 1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", [*sorted(SMALL), "explicit", *BIG_TREES])
    def test_rows_are_the_prefix_of_a_longer_call(self, name):
        # a call fills its rows in order: 25 rows are the first 25 of 60
        spec = EXPLICIT if name == "explicit" else BIG_TREES.get(name) or small(name)
        members = None if name in BIG_TREES else {tuple(r) for r in spec.member_matrix().tolist()}
        edges = complete_graph_edges(spec.m).tolist() if name in BIG_TREES else None
        block = spec.sample_rows(SeededRng(78).child(len(name)).generator(), 60)
        assert block.shape == (60, spec.K)
        np.testing.assert_array_equal(block[:25], spec.sample_rows(SeededRng(78).child(len(name)).generator(), 25))
        for row in block:
            assert np.all(np.diff(row) > 0)
            if members is None:
                assert is_acyclic(spec.m, edges, row)
            else:
                assert tuple(row.tolist()) in members

    def test_zero_rows_draw_nothing(self, family):
        spec = small(family)
        gen = SeededRng(79).child(len(family)).generator()
        state = gen.bit_generator.state
        assert spec.sample_rows(gen, 0).shape == (0, spec.K)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 40])
    def test_tree_rows_decode_the_pruefer_draws(self, m):
        # each tree is the textbook decode of its row of integers(m, size=(rows, m - 2))
        spec = SpanningTrees(m)
        rows = spec.sample_rows(SeededRng(80).child(m).generator(), 40)
        codes = SeededRng(80).child(m).generator().integers(m, size=(40, m - 2))
        for row, code in zip(rows, codes):
            assert row.tolist() == textbook_pruefer_tree(m, code.tolist())

    @pytest.mark.parametrize("spec", [KSets(9, 4), KSets(5, 5), KSets(6, 1), Cliques(8, 3)], ids=repr)
    def test_subsets_are_floyds(self, spec):
        # a row's vertex (or index) set is Floyd's subset from its row of draws
        n, k = (spec.m, spec.k) if isinstance(spec, Cliques) else (spec.n, spec.K)
        rows = spec.sample_rows(SeededRng(83).child(n, k).generator(), 50)
        draws = SeededRng(83).child(n, k).generator().integers(0, n - k + 1 + np.arange(k), size=(50, k))
        for row, t in zip(rows, draws):
            subset = textbook_floyd(n, k, t.tolist())
            if isinstance(spec, Cliques):
                subset = spec._edge_ids(np.array([subset]))[0].tolist()
            assert row.tolist() == subset

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_matchings_are_the_textbook_shuffle(self, m):
        spec = make_class("matchings", m=m)
        rows = spec.sample_rows(SeededRng(84).child(m).generator(), 50)
        draws = SeededRng(84).child(m).generator().integers(0, m - np.arange(m - 1), size=(50, m - 1))
        for row, r in zip(rows, draws):
            perm = textbook_shuffle(m, r.tolist())
            assert row.tolist() == [i * m + perm[i] for i in range(m)]

    @pytest.mark.parametrize("m", range(2, 8))
    def test_decoder_gives_every_tree_once(self, m):
        spec = SpanningTrees(m)
        seqs = np.array(list(itertools.product(range(m), repeat=m - 2)), dtype=np.intp)
        trees = spec._members(seqs)
        trees = trees[np.lexsort(trees.T[::-1])]
        np.testing.assert_array_equal(trees, filtered_tree_members(m))

    def test_two_vertex_tree_draws_nothing(self):
        gen = SeededRng(81).generator()
        state = gen.bit_generator.state
        np.testing.assert_array_equal(SpanningTrees(2).sample_rows(gen, 2), [[0], [0]])
        assert gen.bit_generator.state == state

    def test_large_tree_is_acyclic(self):
        # degrees reach m - 1 = 129, past an int8
        m = 130
        edges = complete_graph_edges(m).tolist()
        for row in SpanningTrees(m).sample_rows(SeededRng(82).generator(), 3):
            assert len(row) == m - 1 and is_acyclic(m, edges, row)

    def test_every_family_draws_codes_and_decodes_them(self):
        # one sample_rows, the base class's; each family defines its own code
        # draw and its own decode, which sample_rows composes
        for cls in [*FAMILIES.values(), ExplicitClass]:
            assert "_codes" in vars(cls) and "_members" in vars(cls), cls.__name__
            assert cls.sample_rows is SetClass.sample_rows, cls.__name__


class TestBatchEvaluation:
    def test_member_sums_match_direct_gather(self, family):
        spec = small(family)
        gen = SeededRng(301).child(sorted(SMALL).index(family)).generator()
        X = gen.standard_normal((7, spec.n))
        M = spec.member_matrix()
        direct = X[:, M].sum(axis=2)
        got = np.concatenate(list(spec.member_sums_iter(X)), axis=1)
        np.testing.assert_allclose(got, direct, atol=1e-10)

    def test_max_values_batch_matches_scalar(self, family):
        spec = small(family)
        gen = SeededRng(302).child(sorted(SMALL).index(family)).generator()
        X = gen.standard_normal((60, spec.n))
        oracle = X[:, spec.member_matrix()].sum(axis=2).max(axis=1)
        assert spec.max_values_batch(X) == pytest.approx(oracle, abs=1e-9)
        # integer weights tie often; every summation order gives the exact value
        Z = gen.integers(-2, 3, size=(120, spec.n)).astype(np.float64)
        oracle = Z[:, spec.member_matrix()].sum(axis=2).max(axis=1)
        np.testing.assert_array_equal(spec.max_values_batch(Z), oracle)

    def test_ksets_beyond_enumeration_cap(self):
        spec = make_class("ksets", n=200, K=30)  # C(200,30) is astronomical
        x = SeededRng(206).generator().standard_normal(200)
        assert spec.max_values_batch(x[None, :])[0] == pytest.approx(np.sort(x)[-30:].sum())

    def test_log_mean_exp_matches_logsumexp(self, family):
        spec = small(family)
        gen = SeededRng(303).child(sorted(SMALL).index(family)).generator()
        X = gen.standard_normal((6, spec.n))
        sums = X[:, spec.member_matrix()].sum(axis=2)
        for mu in (0.0, 0.3, 2.0, 25.0):
            expect = logsumexp(mu * sums, axis=1) - math.log(spec.cardinality())
            got = spec.log_mean_exp_batch(mu, X)
            np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_ksets_recurrence_equals_enumeration(self):
        spec = make_class("ksets", n=8, K=3)
        gen = SeededRng(304).generator()
        X = gen.standard_normal((5, 8))
        sums = X[:, spec.member_matrix()].sum(axis=2)
        for mu in (0.05, 1.0, 10.0):
            expect = logsumexp(mu * sums, axis=1) - math.log(spec.cardinality())
            np.testing.assert_allclose(
                spec.log_mean_exp_batch(mu, X), expect, rtol=1e-11
            )

    def test_chunked_iteration_covers_all_members(self, monkeypatch):
        spec = make_class("ksets", n=22, K=3)  # N = 1540 members
        # chunks of 1333 members, so the class takes two
        monkeypatch.setattr(classes, "_BLOCK_BUDGET", 1333 * classes._BLOCK_ROWS * spec.K)
        gen = SeededRng(305).generator()
        X = gen.standard_normal((2000, 22))
        blocks = list(spec.member_sums_iter(X))
        assert len(blocks) > 1
        got = np.concatenate(blocks, axis=1)
        direct = X[:, spec.member_matrix()].sum(axis=2)
        np.testing.assert_allclose(got, direct, atol=1e-10)


class TestEdgeNumbering:
    def test_complete_graph_edges_are_lexicographic_pairs(self):
        np.testing.assert_array_equal(
            complete_graph_edges(4),
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        )

    @staticmethod
    def pair_id(i, j, m):
        # 1-based vertices i < j -> 1-based edge id
        return (i - 1) * (2 * m - i) // 2 + (j - i)

    def test_star_members_use_pair_numbering(self):
        m = 5
        spec = make_class("stars", m=m)
        members = (spec.member_matrix() + 1).tolist()
        for c in range(1, m + 1):
            expect = sorted(self.pair_id(min(c, v), max(c, v), m) for v in range(1, m + 1) if v != c)
            assert members[c - 1] == expect

    def test_clique_members_use_pair_numbering(self):
        spec = make_class("cliques", m=5, k=3)
        got = {tuple(r) for r in (spec.member_matrix() + 1).tolist()}
        expect = set()
        for vs in itertools.combinations(range(1, 6), 3):
            expect.add(tuple(sorted(self.pair_id(a, b, 5) for a, b in itertools.combinations(vs, 2))))
        assert got == expect

    def test_matching_identity_permutation_member(self):
        spec = make_class("matchings", m=4)
        # sigma = identity pairs left i with right i: bipartite ids (i-1)m + i
        assert (spec.member_matrix()[0] + 1).tolist() == [1, 6, 11, 16]

    def test_grid_first_member_is_top_left_square(self):
        spec = make_class("grid", sqrt_n=4, sqrt_K=2)
        assert (spec.member_matrix()[0] + 1).tolist() == [1, 2, 5, 6]


class TestSpanningTreeLaw:
    def test_every_enumerated_member_is_connected_acyclic(self):
        spec = make_class("trees", m=5)
        edges = complete_graph_edges(5)
        for row in spec.member_matrix():
            adj = {v: [] for v in range(5)}
            for e in row:
                a, b = edges[e]
                adj[a].append(b)
                adj[b].append(a)
            seen = {0}
            stack = [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == 5 and len(row) == 4

    @pytest.mark.parametrize("m", range(2, 8))
    def test_pruefer_matrix_is_the_filtered_combinations(self, m):
        M = SpanningTrees(m).member_matrix()
        ref = filtered_tree_members(m)
        assert M.dtype == ref.dtype and np.array_equal(M, ref)

    def test_pruefer_matrix_has_every_tree_once(self):
        spec = SpanningTrees(8)
        M = spec.member_matrix()
        # distinct rows of increasing edge ids, in lexicographic order
        assert M.shape == (8**6, 7) and np.array_equal(np.unique(M, axis=0), M)
        assert np.all(M[:, 1:] > M[:, :-1])

    @pytest.mark.parametrize("m,expected", [(4, Fraction(2, 4)), (5, Fraction(2, 5))])
    def test_edge_frequency_is_two_over_m(self, m, expected):
        spec = make_class("trees", m=m)
        M = spec.member_matrix()
        counts = np.bincount(M.ravel(), minlength=spec.n)
        assert set(counts.tolist()) == {int(expected * spec.cardinality())}


class TestOverlapLaws:
    def test_pmf_matches_pair_enumeration(self, family):
        spec = small(family)
        pmf = spec.overlap_pmf()
        if pmf is None:
            assert family == "trees"
            return
        zs, probs = pmf
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        M = spec.member_matrix()
        N = M.shape[0]
        acc: dict[int, int] = {}
        for i in range(N):
            ov = np.isin(M, M[i]).sum(axis=1)
            for z in ov:
                acc[int(z)] = acc.get(int(z), 0) + 1
        brute_z = sorted(acc)
        brute_p = [acc[z] / N**2 for z in brute_z]
        assert list(zs) == brute_z
        np.testing.assert_allclose(probs, brute_p, atol=1e-12)

    def test_exact_mgf_matches_pair_enumeration(self):
        spec = small("cliques")
        mu = 0.45
        M = spec.member_matrix()
        N = M.shape[0]
        total = 0.0
        for i in range(N):
            ov = np.isin(M, M[i]).sum(axis=1)
            total += np.exp(mu * mu * ov).sum()
        assert exact_overlap_mgf(spec, mu) == pytest.approx(total / N**2, rel=1e-12)

    def test_negative_mu_is_refused(self):
        # as ProblemInstance refuses it; trees have no law, ksets sample pairs
        for spec in (small("stars"), small("ksets"), small("trees")):
            with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
                exact_overlap_mgf(spec, -0.8)
            with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
                estimate_overlap_mgf(spec, -0.8, 50, SeededRng(3))

    def test_one_block_always_overlaps_fully(self):
        # DisjointSets(1, K) has one member, so every pair shares all K indices
        zs, probs = classes.DisjointSets(1, 3).overlap_pmf()
        assert zs.tolist() == [3] and probs.tolist() == [1.0]
        assert exact_overlap_mgf(classes.DisjointSets(1, 3), 0.5) == math.exp(0.25 * 3)

    @pytest.mark.parametrize("sqrt_n,sqrt_K", [(1, 1), (3, 1), (3, 3), (5, 2), (6, 4)])
    def test_grid_law_matches_pair_enumeration(self, sqrt_n, sqrt_K):
        spec = classes.GridSquares(sqrt_n, sqrt_K)
        M = spec.member_matrix()
        ov = np.concatenate([np.isin(M, row).sum(axis=1) for row in M])
        brute_z, counts = np.unique(ov, return_counts=True)
        zs, probs = spec.overlap_pmf()
        assert zs.tolist() == brute_z.tolist()
        np.testing.assert_allclose(probs, counts / ov.size, rtol=1e-12)

    def test_trees_have_no_closed_form(self):
        assert exact_overlap_mgf(make_class("trees", m=4), 0.5) is None

    def test_estimator_is_exact_for_listed_families(self):
        for fam in ("disjoint", "stars", "matchings"):
            spec = small(fam)
            est, se = estimate_overlap_mgf(spec, 0.6, 50, SeededRng(3))
            assert se == 0.0
            assert est == pytest.approx(exact_overlap_mgf(spec, 0.6), rel=1e-12)

    def test_estimator_monte_carlo_tracks_exact_law(self):
        spec = make_class("ksets", n=10, K=3)
        exact = exact_overlap_mgf(spec, 0.5)
        est, se = estimate_overlap_mgf(spec, 0.5, 4000, SeededRng(8))
        assert se > 0
        assert abs(est - exact) < 5 * se


class TestCapsAndExplicit:
    def test_member_matrix_respects_cap(self):
        spec = make_class("cliques", m=20, k=3)  # N = 1140
        with pytest.raises(CapExceededError) as exc:
            spec.member_matrix(cap=100)
        assert exc.value.cardinality == 1140
        assert exc.value.cap == 100
        assert spec.member_matrix(cap=2000).shape == (1140, 3)

    def test_default_cap_blocks_huge_classes(self):
        spec = make_class("ksets", n=100, K=10)
        with pytest.raises(CapExceededError):
            spec.member_matrix()

    def test_explicit_class_validation(self):
        # rows are 0-based; each is sorted and the rows put in lexicographic order
        spec = ExplicitClass(6, np.array([[3, 2], [0, 1]]))
        assert (spec.n, spec.K, spec.cardinality()) == (6, 2, 2)
        np.testing.assert_array_equal(spec.member_matrix(), [[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            ExplicitClass(6, np.array([[0, 1], [0, 1]]))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [-1, 2]],  # below the range
            [[0, 1], [2, 6]],  # index n
            [[0, 0], [1, 2]],  # repeated index within a row
            [[0, 1], [1, 0]],  # one member given twice, in two orders
            np.array([[0.0, 1.5], [2.0, 3.0]]),  # floats are not truncated
            np.array([[0.0, 1.0], [2.0, 3.0]]),  # integral floats are refused too
            [0, 1, 2],  # 1-D
            np.empty((0, 2), dtype=np.int64),  # no members
            [],
            [[0, 1], [2]],  # ragged
        ],
    )
    def test_explicit_class_refuses_bad_rows(self, rows):
        with pytest.raises(ValueError):
            ExplicitClass(6, rows)

    def test_family_pickles_as_its_params(self):
        # a worker task ships the constructor's arguments, never the caches,
        # and a process keeps one instance per arguments
        spec = make_class("cliques", m=63, k=4)
        spec.member_matrix()
        blob = pickle.dumps(spec)
        assert len(blob) < 64 * 1024
        a, b = pickle.loads(blob), pickle.loads(blob)
        assert a is b
        assert repr(a) == repr(spec)

    def test_explicit_class_pickles_its_rows(self):
        spec = pickle.loads(pickle.dumps(EXPLICIT))
        assert spec is not EXPLICIT
        np.testing.assert_array_equal(spec.member_matrix(), EXPLICIT.member_matrix())
        assert spec.n == EXPLICIT.n

    def test_symmetry_flags(self):
        assert make_class("ksets", n=5, K=2).is_symmetric
        assert make_class("stars", m=4).is_symmetric
        assert make_class("matchings", m=3).is_symmetric
        assert make_class("cliques", m=5, k=3).is_symmetric
        assert make_class("disjoint", N=3, K=2).is_symmetric
        assert not make_class("trees", m=4).is_symmetric
        assert not make_class("grid", sqrt_n=3, sqrt_K=2).is_symmetric
