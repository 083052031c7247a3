import numpy as np
import pytest

from combidetect import (
    DimensionMismatchError,
    IndexSet,
    Observation,
    ProblemInstance,
    SeededRng,
    make_class,
)
from combidetect.core import as_vector
from combidetect.risk import _MIXTURE_ARM, _NULL_ARM, _draw_block


class TestIndexSet:
    def test_sorts_and_validates(self):
        s = IndexSet((5, 2, 9), 10)
        assert s.indices == (2, 5, 9)
        assert len(s) == 3
        assert s.n == 10

    def test_zero_based(self):
        np.testing.assert_array_equal(IndexSet((3, 1), 4).zero_based(), [0, 2])

    @pytest.mark.parametrize("bad", [(), (0, 1), (1, 11), (2, 2)])
    def test_rejects_bad_indices(self, bad):
        with pytest.raises(ValueError):
            IndexSet(bad, 10)

    def test_encode_decode_roundtrip(self):
        s = IndexSet((7, 1, 4), 9)
        assert s.encode() == "1,4,7"
        assert IndexSet.decode(s.encode(), 9) == s

    def test_hashable_and_frozen(self):
        s = IndexSet((1, 2), 5)
        assert s == IndexSet((2, 1), 5)
        assert hash(s) == hash(IndexSet((2, 1), 5))
        with pytest.raises(AttributeError):
            s.n = 6


class TestSeededRng:
    def test_same_address_same_stream(self):
        a = SeededRng(42).child(3, 1).generator().standard_normal(5)
        b = SeededRng(42).child(3).child(1).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_children_differ(self):
        root = SeededRng(42)
        a = root.child(0).generator().standard_normal(5)
        b = root.child(1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_order_of_derivation_is_irrelevant(self):
        r = SeededRng(7)
        first = r.child(2).generator().standard_normal(3)
        _ = r.child(5).generator().standard_normal(1000)
        again = r.child(2).generator().standard_normal(3)
        np.testing.assert_array_equal(first, again)

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(1).child(-2)


class TestChildStates:
    """The block derivation against numpy's own SeedSequence and PCG64."""

    # address (master_seed, *stream, arm, t) of 3, 4, 5 and 6 uint32 words:
    # below, at and above SeedSequence's pool of 4; the last master seed
    # coerces to two words
    ROOTS = [
        SeededRng(20091),
        SeededRng(8801, (5,)),
        SeededRng(7, (0, 3)),
        SeededRng(123456789, (4, 1, 2)),
        SeededRng(2**32 + 5, (1,)),
    ]
    TRIALS = 10_000  # 5 roots x 2 arms x 10^4 trials = 10^5 addresses

    @pytest.mark.parametrize("root", ROOTS, ids=lambda r: f"{r.master_seed}-{len(r.stream)}")
    def test_matches_seed_sequence_on_both_arms(self, root):
        for arm in (0, 1):
            states = root.child(arm).child_states(0, self.TRIALS)
            assert len(states) == self.TRIALS
            for t, state in enumerate(states):
                address = (root.master_seed, *root.stream, arm, t)
                expect = np.random.PCG64(np.random.SeedSequence(address)).state
                assert state == expect, address

    def test_multiword_trial_index_falls_back(self):
        rng = SeededRng(11, (2,)).child(0)
        lo, hi = 2**32 - 2, 2**32 + 2
        expect = [
            np.random.PCG64(np.random.SeedSequence((11, 2, 0, t))).state for t in range(lo, hi)
        ]
        assert rng.child_states(lo, hi) == expect


class TestObservation:
    def test_validates_and_freezes(self):
        x = Observation(np.array([1.0, 2.0]))
        assert x.n == 2
        with pytest.raises(ValueError):
            x.values[0] = 9.0

    @pytest.mark.parametrize("bad", [np.array([]), np.zeros((2, 2)), np.array([np.nan]), np.array([np.inf])])
    def test_rejects_bad_vectors(self, bad):
        with pytest.raises(ValueError):
            Observation(bad)

    def test_as_vector_accepts_lists_and_observations(self):
        np.testing.assert_array_equal(as_vector([1, 2, 3], 3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(as_vector(Observation(np.ones(2)), 2), [1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            as_vector([1.0, 2.0], 3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                as_vector([1.0, bad, 2.0], 3)


class TestProblemInstance:
    def test_exposes_class_shape(self):
        inst = ProblemInstance(make_class("disjoint", N=3, K=2), 0.7)
        assert inst.n == 6
        assert inst.K == 2

    @pytest.mark.parametrize("mu", [-0.1, np.nan, np.inf])
    def test_rejects_bad_mu(self, mu):
        spec = make_class("stars", m=4)
        with pytest.raises(ValueError):
            ProblemInstance(spec, mu)


class TestGaussianSample:
    # the risk estimators draw every observation through risk._draw_block
    def test_null_draw_is_standard_normal_stream(self):
        inst = ProblemInstance(make_class("disjoint", N=2, K=2), 1.0)
        rng = SeededRng(3)
        X = _draw_block(inst, _NULL_ARM, 8, 9, rng)
        expected = rng.child(_NULL_ARM, 8).generator().standard_normal(4)
        np.testing.assert_array_equal(X[0], expected)

    def test_shift_lands_on_hypothesis_only(self):
        # the mixture arm draws a member (block j is {2j, 2j+1}), then the
        # noise, and shifts the member's coordinates alone
        inst = ProblemInstance(make_class("disjoint", N=2, K=2), 5.0)
        rng = SeededRng(3)
        X = _draw_block(inst, _MIXTURE_ARM, 0, 40, rng)
        hit = set()
        for t, x in enumerate(X):
            gen = rng.child(_MIXTURE_ARM, t).generator()
            j = int(gen.integers(2))
            noise = gen.standard_normal(4)
            inside = np.isin(np.arange(4), [2 * j, 2 * j + 1])
            np.testing.assert_array_equal(x[~inside], noise[~inside])
            np.testing.assert_allclose(x[inside], noise[inside] + 5.0)
            hit.add(j)
        assert hit == {0, 1}
