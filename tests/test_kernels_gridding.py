"""Property-based equivalence tests for the Level-3 gridding kernels.

The vectorized binning engine (composite-key ``bincount`` sums, segmented
``lexsort`` medians/MADs) must agree with its pure-loop oracle
(:mod:`repro.kernels.reference`) to 1e-10 on randomized inputs, including
the degenerate corners: empty cells, single-segment cells (std/MAD must be
0.0 by convention, not garbage), duplicate values and completely empty
inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import gridding as kgrid
from repro.kernels import reference as kref
from repro.kernels.reference import oracles

HYPOTHESIS_SETTINGS = dict(max_examples=40, deadline=None)


def assert_equiv(a, b, label, atol=1e-10):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape, label
    assert np.array_equal(np.isnan(a), np.isnan(b)), f"{label}: NaN pattern differs"
    assert np.allclose(a, b, atol=atol, rtol=0.0, equal_nan=True), (
        f"{label}: max |diff| = {np.nanmax(np.abs(a - b))}"
    )


def both_statistics(idx, values, n_cells):
    ref = kref.cell_statistics_reference(idx, values, n_cells)
    vec = kgrid.cell_statistics(idx, values, n_cells)
    for r, v, label in zip(ref, vec, ("count", "mean", "median", "std", "mad")):
        assert_equiv(r, v, label)
    return ref


class TestCellStatisticsEquivalence:
    @given(
        n_cells=st.integers(min_value=1, max_value=50),
        n_points=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**HYPOTHESIS_SETTINGS)
    def test_random_occupancy(self, n_cells, n_points, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_cells, n_points)
        values = rng.normal(0.3, 0.2, n_points)
        both_statistics(idx, values, n_cells)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**HYPOTHESIS_SETTINGS)
    def test_duplicate_values_and_ties(self, seed):
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(1, 200))
        idx = rng.integers(0, 7, n_points)
        # Heavily quantised values force median ties and even-count middles.
        values = np.round(rng.normal(0.0, 1.0, n_points), 1)
        both_statistics(idx, values, 7)

    def test_empty_input(self):
        count, mean, median, std, mad = both_statistics(
            np.empty(0, dtype=np.int64), np.empty(0), 5
        )
        np.testing.assert_array_equal(count, np.zeros(5, dtype=np.int64))
        assert np.isnan(mean).all() and np.isnan(median).all()
        assert np.isnan(std).all() and np.isnan(mad).all()

    def test_single_segment_cells_have_zero_spread(self):
        """The documented convention: one contributor -> std 0, MAD 0."""
        idx = np.array([0, 2, 4])
        values = np.array([0.31, -0.2, 1.7])
        count, mean, median, std, mad = both_statistics(idx, values, 5)
        np.testing.assert_array_equal(count, [1, 0, 1, 0, 1])
        occupied = count > 0
        np.testing.assert_array_equal(std[occupied], 0.0)
        np.testing.assert_array_equal(mad[occupied], 0.0)
        np.testing.assert_array_equal(mean[occupied], values)
        np.testing.assert_array_equal(median[occupied], values)
        assert np.isnan(mean[~occupied]).all()

    def test_all_points_in_one_cell_matches_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 1.0, 101)
        idx = np.zeros(101, dtype=np.int64)
        count, mean, median, std, mad = both_statistics(idx, values, 3)
        assert count[0] == 101 and (count[1:] == 0).all()
        assert mean[0] == pytest.approx(np.mean(values), abs=1e-12)
        assert median[0] == np.median(values)
        assert std[0] == pytest.approx(np.std(values), abs=1e-12)
        assert mad[0] == np.median(np.abs(values - np.median(values)))

    def test_trailing_empty_cells(self):
        idx = np.array([0, 0, 1])
        values = np.array([1.0, 3.0, 5.0])
        count, mean, median, std, mad = both_statistics(idx, values, 10)
        assert count[0] == 2 and count[1] == 1
        assert (count[2:] == 0).all()
        assert np.isnan(mean[2:]).all()
        assert median[0] == 2.0  # even count -> mean of the two middles

    def test_out_of_range_index_rejected(self):
        for fn in (kref.cell_statistics_reference, kgrid.cell_statistics):
            with pytest.raises(ValueError, match="out of range"):
                fn(np.array([-1]), np.array([1.0]), 4)
            with pytest.raises(ValueError, match="out of range"):
                fn(np.array([4]), np.array([1.0]), 4)

    def test_non_finite_values_rejected_by_both_backends(self):
        """NaN sorts differently than it reduces, so rather than letting
        kernel and oracle silently disagree, both enforce the finite-values
        contract."""
        for fn in (kref.cell_statistics_reference, kgrid.cell_statistics):
            with pytest.raises(ValueError, match="finite"):
                fn(np.array([0, 0, 0]), np.array([1.0, 2.0, np.nan]), 1)
            with pytest.raises(ValueError, match="finite"):
                fn(np.array([0]), np.array([np.inf]), 1)


class TestClassCountsEquivalence:
    @given(
        n_cells=st.integers(min_value=1, max_value=40),
        n_points=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**HYPOTHESIS_SETTINGS)
    def test_random_occupancy_exact(self, n_cells, n_points, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_cells, n_points)
        labels = rng.integers(0, 3, n_points)
        ref = kref.cell_class_counts_reference(idx, labels, n_cells, 3)
        vec = kgrid.cell_class_counts(idx, labels, n_cells, 3)
        np.testing.assert_array_equal(ref, vec)
        assert ref.shape == (3, n_cells)
        assert int(ref.sum()) == n_points

    def test_label_out_of_range_rejected(self):
        for fn in (
            kref.cell_class_counts_reference,
            kgrid.cell_class_counts,
        ):
            with pytest.raises(ValueError, match="labels"):
                fn(np.array([0]), np.array([3]), 4, 3)


class TestDispatch:
    def test_backend_switch_routes_both_kernels(self):
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 9, 120)
        values = rng.normal(0.0, 1.0, 120)
        labels = rng.integers(0, 3, 120)
        with oracles():
            assert kgrid.cell_statistics is kref.cell_statistics_reference
            assert kgrid.cell_class_counts is kref.cell_class_counts_reference
            stats_ref = kgrid.cell_statistics(idx, values, 9)
            counts_ref = kgrid.cell_class_counts(idx, labels, 9, 3)
        stats_vec = kgrid.cell_statistics(idx, values, 9)
        counts_vec = kgrid.cell_class_counts(idx, labels, 9, 3)
        for r, v, label in zip(stats_ref, stats_vec, ("count", "mean", "median", "std", "mad")):
            assert_equiv(r, v, label)
        np.testing.assert_array_equal(counts_ref, counts_vec)
