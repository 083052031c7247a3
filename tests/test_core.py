import pickle
import subprocess
import sys

import numpy as np
import pytest

from combidetect import (
    DimensionMismatchError,
    ProblemInstance,
    SeededRng,
    make_class,
)
from combidetect.core import CapExceededError, as_vector
from combidetect.risk import _MIXTURE_ARM, _NULL_ARM, _draw_block


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
            seeds = root.child(arm).child_seeds(0, self.TRIALS)
            assert len(seeds) == self.TRIALS
            for t, seed in enumerate(seeds):
                address = (root.master_seed, *root.stream, arm, t)
                expect = np.random.PCG64(np.random.SeedSequence(address)).state
                assert np.random.PCG64(seed).state == expect, address

    def test_multiword_trial_index_falls_back(self):
        rng = SeededRng(11, (2,)).child(0)
        lo, hi = 2**32 - 2, 2**32 + 2
        expect = [
            np.random.PCG64(np.random.SeedSequence((11, 2, 0, t))).state for t in range(lo, hi)
        ]
        assert [np.random.PCG64(seed).state for seed in rng.child_seeds(lo, hi)] == expect

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (8, np.uint32), (4, np.uint32)])
    def test_seed_refuses_any_other_request(self, n_words, dtype):
        (seed,) = SeededRng(3).child_seeds(0, 1)
        with pytest.raises(ValueError, match="4 uint64"):
            seed.generate_state(n_words, dtype)

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random takes milliseconds to import; only drawing needs it
        code = "import sys, combidetect; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_process_pools_unloaded(self):
        # the worker pool's modules load on the first fan-out only
        code = (
            "import sys, combidetect; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestErrors:
    def test_cap_error_survives_pickling(self):
        # a worker process's error reaches the caller through pickle
        err = pickle.loads(pickle.dumps(CapExceededError(10, 5)))
        assert type(err) is CapExceededError
        assert (err.cardinality, err.cap) == (10, 5)
        assert str(err) == str(CapExceededError(10, 5))


class TestObservation:
    @pytest.mark.parametrize("bad", [np.array([]), np.zeros((2, 2)), np.array([np.nan]), np.array([np.inf])])
    def test_rejects_bad_vectors(self, bad):
        # a class has n >= 1; the 2-D array has the right size, not the right shape
        with pytest.raises(ValueError):
            as_vector(bad, max(bad.size, 1))

    def test_as_vector_accepts_lists(self):
        np.testing.assert_array_equal(as_vector([1, 2, 3], 3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(as_vector(np.ones(2), 2), [1.0, 1.0])
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
