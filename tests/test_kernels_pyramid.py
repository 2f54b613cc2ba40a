"""Property-based equivalence tests for the tile-pyramid reduction kernels.

The vectorized overview reductions (four strided child planes at once) must
agree with the per-output-cell reference loops to 1e-10 on randomized
inputs — in fact bit for bit, since both backends accumulate the four
children in the same order with exact-zero non-contributors.  The corners
the acceptance criteria call out are covered explicitly: all-NaN layers and
single-cell tiles, plus odd shapes (phantom children), zero-weight cells
and NaN-with-positive-weight cells (sparse cells below the ``min_segments``
floor).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import pyramid as kpyr
from repro.kernels import use_backend

HYPOTHESIS_SETTINGS = dict(max_examples=40, deadline=None)


def assert_equiv(a, b, label, atol=1e-10):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape, label
    assert np.array_equal(np.isnan(a), np.isnan(b)), f"{label}: NaN pattern differs"
    assert np.allclose(a, b, atol=atol, rtol=0.0, equal_nan=True), (
        f"{label}: max |diff| = {np.nanmax(np.abs(a - b))}"
    )


def both_reduce_mean(values, weights):
    ref_v, ref_w = kpyr.reduce_mean_reference(values, weights)
    vec_v, vec_w = kpyr.reduce_mean_vectorized(values, weights)
    assert_equiv(ref_v, vec_v, "values")
    assert_equiv(ref_w, vec_w, "weights")
    return ref_v, ref_w


def random_layers(rng, ny, nx):
    """A realistic mosaic layer: holes, sparse NaN cells, integer weights."""
    weights = np.where(
        rng.random((ny, nx)) < 0.7, rng.integers(0, 20, (ny, nx)), 0
    ).astype(float)
    values = np.where(weights > 0, rng.normal(0.3, 0.2, (ny, nx)), np.nan)
    sparse = rng.random((ny, nx)) < 0.15
    values[sparse] = np.nan  # positive weight, NaN value: must not contribute
    return values, weights


class TestReduceMeanEquivalence:
    @given(
        ny=st.integers(min_value=1, max_value=33),
        nx=st.integers(min_value=1, max_value=33),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**HYPOTHESIS_SETTINGS)
    def test_random_layers(self, ny, nx, seed):
        rng = np.random.default_rng(seed)
        values, weights = random_layers(rng, ny, nx)
        both_reduce_mean(values, weights)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**HYPOTHESIS_SETTINGS)
    def test_all_nan_layer(self, seed):
        rng = np.random.default_rng(seed)
        ny, nx = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        values = np.full((ny, nx), np.nan)
        weights = rng.integers(0, 5, (ny, nx)).astype(float)
        out_v, out_w = both_reduce_mean(values, weights)
        assert np.isnan(out_v).all()
        assert (out_w == 0).all()

    @given(
        value=st.floats(min_value=-10, max_value=10, allow_nan=False),
        # Weights are segment counts; a subnormal weight (e.g. 5e-324) is
        # unphysical and makes (w * v) lose nearly every mantissa bit, so
        # the one-rounding tolerance below would not hold for it.
        weight=st.floats(min_value=0.0, max_value=50.0, allow_subnormal=False),
    )
    @settings(**HYPOTHESIS_SETTINGS)
    def test_single_cell_tile(self, value, weight):
        out_v, out_w = both_reduce_mean(
            np.array([[value]]), np.array([[weight]])
        )
        assert out_v.shape == (1, 1) and out_w.shape == (1, 1)
        if weight > 0:
            # (w * v) / w is one rounding away from v in IEEE double.
            assert out_v[0, 0] == pytest.approx(value, abs=1e-10)
            assert out_w[0, 0] == weight
        else:
            assert np.isnan(out_v[0, 0]) and out_w[0, 0] == 0.0

    def test_weighted_mean_is_exact(self):
        # One output cell with hand-checkable children.
        values = np.array([[1.0, 3.0], [np.nan, 5.0]])
        weights = np.array([[1.0, 3.0], [7.0, 0.0]])
        out_v, out_w = both_reduce_mean(values, weights)
        # NaN child (w=7) and zero-weight child (v=5) must not contribute.
        assert out_v[0, 0] == pytest.approx((1.0 * 1 + 3.0 * 3) / 4.0)
        assert out_w[0, 0] == 4.0

    def test_odd_shapes_have_phantom_children(self):
        values = np.array([[1.0, 2.0, 3.0]])
        weights = np.array([[1.0, 1.0, 2.0]])
        out_v, out_w = both_reduce_mean(values, weights)
        assert out_v.shape == (1, 2)
        assert out_v[0, 0] == pytest.approx(1.5)
        assert out_v[0, 1] == 3.0 and out_w[0, 1] == 2.0

    def test_backends_bit_identical(self):
        rng = np.random.default_rng(7)
        values, weights = random_layers(rng, 31, 17)
        ref_v, ref_w = kpyr.reduce_mean_reference(values, weights)
        vec_v, vec_w = kpyr.reduce_mean_vectorized(values, weights)
        assert np.array_equal(ref_v, vec_v, equal_nan=True)
        assert np.array_equal(ref_w, vec_w)


class TestReduceCoverageEquivalence:
    @given(
        ny=st.integers(min_value=1, max_value=33),
        nx=st.integers(min_value=1, max_value=33),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**HYPOTHESIS_SETTINGS)
    def test_random_coverage(self, ny, nx, seed):
        rng = np.random.default_rng(seed)
        coverage = rng.random((ny, nx))
        assert_equiv(
            kpyr.reduce_coverage_reference(coverage),
            kpyr.reduce_coverage_vectorized(coverage),
            "coverage",
        )

    def test_phantom_children_count_as_uncovered(self):
        out = kpyr.reduce_coverage_vectorized(np.array([[1.0]]))
        assert out[0, 0] == 0.25  # 1 covered child of 4

    def test_full_coverage_even_shape(self):
        out = kpyr.reduce_coverage_reference(np.ones((4, 4)))
        assert np.array_equal(out, np.ones((2, 2)))


class TestValidationAndDispatch:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            kpyr.reduce_mean_vectorized(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            kpyr.reduce_mean_reference(np.zeros((2, 2)), np.full((2, 2), -1.0))

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kpyr.reduce_mean_vectorized(np.zeros((2, 2)), np.full((2, 2), np.nan))

    def test_coverage_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            kpyr.reduce_coverage_vectorized(np.full((2, 2), 1.5))

    def test_reduced_shape_rejects_empty(self):
        with pytest.raises(ValueError, match="empty layer"):
            kpyr.reduced_shape((0, 4))

    def test_dispatch_follows_backend_switch(self):
        values = np.array([[1.0, np.nan], [2.0, 4.0]])
        weights = np.array([[1.0, 1.0], [3.0, 0.0]])
        with use_backend("reference"):
            ref = kpyr.reduce_mean(values, weights)
        with use_backend("vectorized"):
            vec = kpyr.reduce_mean(values, weights)
        with use_backend("vectorized"), use_backend("reference"):
            nested = kpyr.reduce_mean(values, weights)
        for a, b in zip(ref, vec):
            assert np.array_equal(a, b, equal_nan=True)
        for a, b in zip(ref, nested):
            assert np.array_equal(a, b, equal_nan=True)
