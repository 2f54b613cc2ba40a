"""Tests for the 2 m fixed-window resampling."""

import dataclasses
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.reference import oracles
from repro.resampling.window import resample_fixed_window

#: The vectorized kernels, and their reference loops installed by ``oracles()``.
RUN_ON = {"vectorized": nullcontext, "reference": oracles}


class TestResampleFixedWindow:
    def test_segment_spacing_is_window_length(self, segments):
        diffs = np.diff(segments.center_along_track_m)
        np.testing.assert_allclose(diffs, 2.0)

    def test_covers_beam_extent(self, beam, segments):
        assert segments.start_along_track_m[0] <= beam.along_track_m[0]
        assert segments.start_along_track_m[-1] + 2.0 >= beam.along_track_m[-1]

    def test_photon_counts_conserved(self, beam, segments):
        n_signal = int((beam.signal_conf >= 3).sum())
        assert int(segments.n_photons.sum()) == n_signal

    def test_heights_bracketed_by_min_max(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.height_min_m[valid] <= segments.height_mean_m[valid] + 1e-9)
        assert np.all(segments.height_mean_m[valid] <= segments.height_max_m[valid] + 1e-9)
        assert np.all(segments.height_min_m[valid] <= segments.height_median_m[valid] + 1e-9)

    def test_std_non_negative(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.height_std_m[valid] >= 0.0)

    def test_empty_segments_have_nan_stats_and_zero_counts(self, segments):
        empty = ~segments.valid_mask()
        if empty.any():
            assert np.all(np.isnan(segments.height_mean_m[empty]))
            assert np.all(segments.n_photons[empty] == 0)
            # but interpolated coordinates remain finite
            assert np.all(np.isfinite(segments.x_m[empty]))

    def test_against_bruteforce_reference(self, beam):
        """The vectorised grouped statistics must match a naive loop."""
        segments = resample_fixed_window(beam, window_length_m=10.0)
        signal = beam.select(beam.signal_conf >= 3)
        for i in np.random.default_rng(0).choice(segments.n_segments, 15, replace=False):
            lo = segments.start_along_track_m[i]
            hi = lo + 10.0
            mask = (signal.along_track_m >= lo) & (signal.along_track_m < hi)
            if mask.sum() == 0:
                assert segments.n_photons[i] == 0
                continue
            assert segments.n_photons[i] == mask.sum()
            assert segments.height_mean_m[i] == pytest.approx(signal.height_m[mask].mean())
            assert segments.height_median_m[i] == pytest.approx(np.median(signal.height_m[mask]))
            assert segments.height_std_m[i] == pytest.approx(signal.height_m[mask].std(), abs=1e-9)

    def test_window_length_affects_count(self, beam):
        fine = resample_fixed_window(beam, window_length_m=2.0)
        coarse = resample_fixed_window(beam, window_length_m=20.0)
        assert fine.n_segments > coarse.n_segments * 5

    def test_truth_class_majority(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.truth_class[valid] >= 0)

    def test_invalid_window_rejected(self, beam):
        with pytest.raises(ValueError):
            resample_fixed_window(beam, window_length_m=0.0)

    def test_empty_beam_rejected(self, beam):
        empty = beam.select(np.zeros(beam.n_photons, dtype=bool))
        with pytest.raises(ValueError):
            resample_fixed_window(empty)

    def test_select_subsets(self, segments):
        mask = segments.n_photons > 0
        subset = segments.select(mask)
        assert subset.n_segments == int(mask.sum())
        with pytest.raises(ValueError):
            segments.select(mask[:-1])

    def test_height_error_behaviour(self, segments):
        err = segments.height_error_m()
        valid = segments.valid_mask()
        assert np.all(err[valid] > 0.0)
        assert np.all(np.isnan(err[~valid]))
        # More photons -> smaller error, on average.
        many = segments.n_photons >= 8
        few = (segments.n_photons >= 1) & (segments.n_photons <= 2)
        if many.any() and few.any():
            assert np.nanmean(err[many]) < np.nanmean(err[few])

    @given(window=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=10, deadline=None)
    def test_property_photon_conservation(self, beam, window):
        segments = resample_fixed_window(beam, window_length_m=window)
        assert int(segments.n_photons.sum()) == int((beam.signal_conf >= 3).sum())

    @pytest.mark.parametrize("side", RUN_ON)
    @pytest.mark.parametrize("window", [0.7, 1.05, 2.0, 3.3, 10.0])
    def test_last_photon_on_a_window_edge_is_kept(self, beam, side, window):
        # Move the last signal photon onto the edge ``start + k * window``
        # (computed as the resampler does), where half-open windows used to
        # drop it.
        signal = beam.select(beam.signal_conf >= 3)
        along = signal.along_track_m.copy()
        start = np.floor(along[0] / window) * window
        k = int(np.ceil((along[-2] - start) / window))
        along[-1] = start + k * window
        signal = dataclasses.replace(signal, along_track_m=along)
        with RUN_ON[side]():
            segments = resample_fixed_window(signal, window_length_m=window)
        assert int(segments.n_photons.sum()) == signal.n_photons
        assert segments.n_photons[-1] >= 1
        assert segments.start_along_track_m[-1] <= along[-1]
