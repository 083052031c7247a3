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

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("stream", [(), (0,), (2**32 - 1, 3), (2**32,), (1, 2**64 + 5)], ids=repr)
    def test_state_is_the_tuple_seed_sequence(self, seed, stream):
        # words below 2**32 go to SeedSequence as a uint32 array, others as the tuple
        got = SeededRng(seed, stream).generator().bit_generator.state
        expect = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))
        assert got == expect.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("keys", [(), (0,), (2**32 - 1, 3), (2**32,), (1, 2**64 + 5)], ids=repr)
    def test_generator_of_keys_is_the_child_generator(self, seed, keys):
        rng = SeededRng(seed, (2,))
        got = rng.generator(*keys).bit_generator.state
        assert got == rng.child(*keys).generator().bit_generator.state

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(1).child(-2)
        with pytest.raises(ValueError, match="stream keys must be nonnegative"):
            SeededRng(1).generator(0, -2)


class TestChildStates:
    """A group of trials draws from its own address, (master_seed, *stream,
    arm, group, 0) for its normals and (..., 1) for its members."""

    @pytest.mark.parametrize("root", [SeededRng(20091), SeededRng(7, (0, 3)), SeededRng(2**32 + 5, (1,))],
                             ids=lambda r: f"{r.master_seed}-{len(r.stream)}")
    def test_groups_draw_from_their_addresses(self, root):
        # a master seed of 2**32 or more is two of SeedSequence's words
        spec = make_class("disjoint", N=2, K=2)  # a group of 1024 trials
        segments = (np.array([[_NULL_ARM], [_MIXTURE_ARM]]), np.array([0.0, 3.0]))
        X, mu = _draw_block(spec, segments, 0, 2 * 1500, root, 1500, [])
        np.testing.assert_array_equal(mu, np.repeat([0.0, 3.0], 1500))
        for arm, rows in ((_NULL_ARM, X[:1500]), (_MIXTURE_ARM, X[1500:])):
            for group, lo, hi in ((0, 0, 1024), (1, 1024, 1500)):
                address = (root.master_seed, *root.stream, arm, group)
                gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((*address, 0))))
                expect = gen.standard_normal((hi - lo, 4))
                if arm == _MIXTURE_ARM:
                    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((*address, 1))))
                    block = gen.integers(2, size=hi - lo)
                    expect[np.arange(hi - lo)[:, None], 2 * block[:, None] + [0, 1]] += 3.0
                np.testing.assert_array_equal(rows[lo:hi], expect)

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
        # rows 1024..1030 of 2000 trials are rows 0..6 of group 1 (n = 4, groups of 1024)
        spec = make_class("disjoint", N=2, K=2)
        rng = SeededRng(3)
        X, mu = _draw_block(spec, (np.array([[_NULL_ARM]]), np.array([1.0])), 1024, 1030, rng, 2000, [])
        assert mu.tolist() == [1.0] * 6
        expected = rng.child(_NULL_ARM, 1, 0).generator().standard_normal((6, 4))
        np.testing.assert_array_equal(X, expected)

    def test_shift_lands_on_hypothesis_only(self):
        # the mixture arm draws the group's members (block j is {2j, 2j+1})
        # and its noise from two substreams, and shifts the members alone
        spec = make_class("disjoint", N=2, K=2)
        rng = SeededRng(3)
        X, _ = _draw_block(spec, (np.array([[_MIXTURE_ARM]]), np.array([5.0])), 0, 40, rng, 40, [])
        blocks = rng.child(_MIXTURE_ARM, 0, 1).generator().integers(2, size=40)
        noise = rng.child(_MIXTURE_ARM, 0, 0).generator().standard_normal((40, 4))
        for x, j, z in zip(X, blocks, noise):
            inside = np.isin(np.arange(4), [2 * j, 2 * j + 1])
            np.testing.assert_array_equal(x[~inside], z[~inside])
            np.testing.assert_allclose(x[inside], z[inside] + 5.0)
        assert set(blocks.tolist()) == {0, 1}
