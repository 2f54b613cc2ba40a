"""Property-based equivalence tests for the vectorized kernel layer.

Every kernel in :mod:`repro.kernels` ships two backends — the original
per-window / per-bin / per-step / per-candidate ``reference`` loops and the
``vectorized`` rewrites.  These tests assert that on random scenes (and the
degenerate corners: empty windows, all-open-water tracks, single-photon
bins, NaN photons) the two backends agree to 1e-10; the drift-search,
resampling and random-field kernels, and the bounding-box lead stamping,
must agree exactly.
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.atl03.confidence import classify_confidence
from repro.atl03.granule import BeamData
from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE
from repro.freeboard.sea_surface import SEA_SURFACE_METHODS, estimate_sea_surface
from repro.kernels import confidence as kconf
from repro.kernels import drift as kdrift
from repro.kernels import lstm as klstm
from repro.kernels import random_field as krandom_field
from repro.kernels import resampling as kresampling
from repro.kernels import sea_surface as ksea
from repro.labeling.alignment import estimate_drift
from repro.resampling.window import resample_fixed_window
from repro.sentinel2.scene import S2Image
from repro.surface.fields import add_linear_leads, gaussian_random_field

HYPOTHESIS_SETTINGS = dict(max_examples=25, deadline=None)


def assert_equiv(a, b, label, atol=1e-10):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape, label
    assert np.array_equal(np.isnan(a), np.isnan(b)), f"{label}: NaN pattern differs"
    assert np.allclose(a, b, atol=atol, rtol=0.0, equal_nan=True), (
        f"{label}: max |diff| = {np.nanmax(np.abs(a - b))}"
    )


# ---------------------------------------------------------------------------
# Backend switch
# ---------------------------------------------------------------------------


class TestBackendSwitch:
    def test_default_is_vectorized(self):
        assert kernels.get_backend() in kernels.KERNEL_BACKENDS

    def test_set_and_restore(self):
        original = kernels.get_backend()
        try:
            kernels.set_backend("reference")
            assert kernels.get_backend() == "reference"
        finally:
            kernels.set_backend(original)

    def test_use_backend_scopes_the_switch(self):
        original = kernels.get_backend()
        with kernels.use_backend("reference"):
            assert kernels.get_backend() == "reference"
        assert kernels.get_backend() == original

    def test_use_backend_restores_on_error(self):
        original = kernels.get_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.get_backend() == original

    def test_unknown_backend_rejected(self):
        original = kernels.get_backend()
        with pytest.raises(ValueError):
            kernels.set_backend("cuda")
        with pytest.raises(ValueError):
            with kernels.use_backend("jax"):
                pass
        assert kernels.get_backend() == original


# ---------------------------------------------------------------------------
# Windowed sea-surface estimation
# ---------------------------------------------------------------------------


def _window_grid(along, window_m=2_000.0, step_m=1_000.0):
    start = float(along.min())
    stop = float(along.max())
    n_windows = max(int(np.ceil((stop - start) / step_m)), 1)
    starts = start + np.arange(n_windows) * step_m
    stops = starts + window_m
    centers = 0.5 * (starts + stops)
    return starts, stops, centers


def _compare_sea_surface(along, height, error, method, min_segments=3):
    starts, stops, centers = _window_grid(along)
    ref = ksea.window_estimates_reference(
        along, height, error, starts, stops, centers, method, min_segments
    )
    vec = ksea.window_estimates_vectorized(
        along, height, error, starts, stops, centers, method, min_segments
    )
    assert_equiv(ref[0], vec[0], f"{method} heights")
    assert_equiv(ref[1], vec[1], f"{method} errors")
    assert np.array_equal(ref[2], vec[2]), f"{method} counts differ"


class TestSeaSurfaceKernel:
    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    def test_random_scene(self, method, seed, n):
        rng = np.random.default_rng(seed)
        along = np.sort(rng.uniform(0.0, 10_000.0, n))
        height = rng.normal(0.05, 0.5, n)
        error = np.clip(rng.uniform(0.0, 0.3, n), 0.02, None)
        _compare_sea_surface(along, height, error, method)

    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    def test_sparse_track_with_empty_windows(self, method):
        # Two dense clusters separated by a long gap: the windows in the gap
        # are empty and must be NaN with zero counts under both backends.
        rng = np.random.default_rng(7)
        along = np.sort(
            np.concatenate(
                [rng.uniform(0.0, 500.0, 40), rng.uniform(9_000.0, 10_000.0, 40)]
            )
        )
        height = rng.normal(0.0, 0.2, along.size)
        error = np.full(along.size, 0.05)
        _compare_sea_surface(along, height, error, method)

    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    def test_single_segment(self, method):
        _compare_sea_surface(
            np.array([100.0]), np.array([0.1]), np.array([0.05]), method, min_segments=1
        )

    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    def test_identical_heights(self, method):
        # Zero spread: MAD = 0, every segment within tolerance, weights collapse.
        n = 50
        along = np.linspace(0.0, 5_000.0, n)
        _compare_sea_surface(along, np.full(n, 0.07), np.full(n, 0.05), method)

    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_outlier_rejection_matches(self, method, seed):
        # Heavy-tailed heights exercise the MAD rejection branch on both sides.
        rng = np.random.default_rng(seed)
        n = 200
        along = np.sort(rng.uniform(0.0, 6_000.0, n))
        height = rng.normal(0.0, 0.1, n)
        outliers = rng.random(n) < 0.1
        height[outliers] -= rng.uniform(2.0, 30.0, int(outliers.sum()))
        error = np.clip(rng.uniform(0.0, 0.2, n), 0.02, None)
        _compare_sea_surface(along, height, error, method)

    @pytest.mark.parametrize("method", SEA_SURFACE_METHODS)
    def test_all_open_water_end_to_end(self, method):
        # estimate_sea_surface on a fully open-water track must be identical
        # under both backends.
        rng = np.random.default_rng(3)
        n = 3_000
        along = np.arange(n) * 2.0
        height = rng.normal(0.05, 0.03, n)
        error = np.full(n, 0.05)
        labels = np.full(n, CLASS_OPEN_WATER, dtype=np.int8)
        with kernels.use_backend("reference"):
            ref = estimate_sea_surface(along, height, error, labels, method=method)
        with kernels.use_backend("vectorized"):
            vec = estimate_sea_surface(along, height, error, labels, method=method)
        assert_equiv(ref.heights_m, vec.heights_m, f"{method} end-to-end heights")
        assert_equiv(ref.errors_m, vec.errors_m, f"{method} end-to-end errors")

    def test_no_open_water_fallback_path(self):
        # With zero classified open water the lowest-quantile fallback kicks
        # in; both backends must agree through it.
        rng = np.random.default_rng(11)
        n = 2_000
        along = np.arange(n) * 2.0
        height = rng.normal(0.45, 0.05, n)
        labels = np.full(n, CLASS_THICK_ICE, dtype=np.int8)
        error = np.full(n, 0.05)
        with kernels.use_backend("reference"):
            ref = estimate_sea_surface(along, height, error, labels, method="nasa")
        with kernels.use_backend("vectorized"):
            vec = estimate_sea_surface(along, height, error, labels, method="nasa")
        assert_equiv(ref.heights_m, vec.heights_m, "fallback heights")


# ---------------------------------------------------------------------------
# ATL03 confidence binning
# ---------------------------------------------------------------------------


def _compare_confidence(along, height, bin_length_m=20.0, resolution=0.25):
    start = float(np.nanmin(along))
    stop = float(np.nanmax(along))
    n_bins = max(int(np.ceil((stop - start) / bin_length_m)), 1)
    bin_edges = start + np.arange(n_bins + 1) * bin_length_m
    ref = kconf.modal_height_per_bin_reference(along, height, bin_edges, resolution)
    vec = kconf.modal_height_per_bin_vectorized(along, height, bin_edges, resolution)
    assert_equiv(ref, vec, "modal heights")


class TestConfidenceKernel:
    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2_000))
    def test_random_photon_cloud(self, seed, n):
        rng = np.random.default_rng(seed)
        along = rng.uniform(0.0, 2_000.0, n)
        surface = rng.random(n) < 0.7
        height = np.where(
            surface, rng.normal(0.0, 0.2, n), rng.uniform(-30.0, 30.0, n)
        )
        _compare_confidence(along, height)

    def test_single_photon_bins(self):
        # One photon per bin: the modal height is that photon's height and
        # np.histogram is never consulted.
        along = np.arange(5) * 100.0 + 10.0
        height = np.array([0.1, -3.0, 7.5, 0.0, 2.25])
        _compare_confidence(along, height, bin_length_m=20.0)
        ref = kconf.modal_height_per_bin_reference(
            along, height, np.arange(0.0, 440.0, 20.0), 0.25
        )
        occupied = ~np.isnan(ref)
        assert np.allclose(ref[occupied], height)

    def test_nan_heights_are_excluded(self):
        # NaN photons must neither crash the histogram nor poison the bin.
        along = np.concatenate([np.full(50, 10.0), np.full(50, 30.0)])
        rng = np.random.default_rng(0)
        height = rng.normal(0.0, 1.0, 100)
        height[::7] = np.nan
        _compare_confidence(along, height)
        conf = classify_confidence(along, height)
        assert np.all(conf[np.isnan(height)] == 0)

    def test_all_nan_heights(self):
        along = np.arange(10.0)
        height = np.full(10, np.nan)
        bin_edges = np.array([0.0, 20.0])
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.use_backend(backend):
                out = kconf.modal_height_per_bin(along, height, bin_edges, 0.25)
            assert np.isnan(out).all()
        assert np.all(classify_confidence(along, height) == 0)

    def test_constant_heights(self):
        # Zero span in every bin: median path, bit-equal backends.
        along = np.linspace(0.0, 500.0, 300)
        height = np.full(300, 1.5)
        _compare_confidence(along, height)

    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_edge_aligned_heights(self, seed):
        # Heights engineered to land exactly on histogram cell edges: the
        # vectorized cell assignment replicates np.histogram's corrections.
        rng = np.random.default_rng(seed)
        n = 500
        along = rng.uniform(0.0, 100.0, n)
        height = rng.integers(-8, 8, n) * 0.25
        _compare_confidence(along, height)

    def test_classify_confidence_backends_agree(self):
        rng = np.random.default_rng(5)
        n = 20_000
        along = rng.uniform(0.0, 5_000.0, n)
        height = np.where(
            rng.random(n) < 0.8, rng.normal(0.0, 0.15, n), rng.uniform(-40.0, 40.0, n)
        )
        with kernels.use_backend("reference"):
            ref = classify_confidence(along, height)
        with kernels.use_backend("vectorized"):
            vec = classify_confidence(along, height)
        assert np.array_equal(ref, vec)


# ---------------------------------------------------------------------------
# LSTM forward/backward
# ---------------------------------------------------------------------------


def _random_lstm(rng, batch, T, n_in, n_units):
    x = rng.normal(size=(batch, T, n_in))
    W = rng.normal(size=(n_in, 4 * n_units)) * 0.3
    U = rng.normal(size=(n_units, 4 * n_units)) * 0.3
    b = rng.normal(size=4 * n_units) * 0.1
    return x, W, U, b


class TestLSTMKernel:
    @pytest.mark.parametrize("activation", klstm.LSTM_ACTIVATIONS)
    @settings(**HYPOTHESIS_SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 16),
        T=st.integers(1, 8),
    )
    def test_forward_backward_equivalence(self, activation, seed, batch, T):
        rng = np.random.default_rng(seed)
        x, W, U, b = _random_lstm(rng, batch, T, 6, 16)
        ref_f = klstm.lstm_forward_reference(x, W, U, b, activation)
        vec_f = klstm.lstm_forward_vectorized(x, W, U, b, activation)
        for name, r, v in zip(("hs", "cs", "gates"), ref_f, vec_f):
            assert_equiv(r, v, f"forward {name}")
        dh_seq = rng.normal(size=(batch, T, 16))
        ref_b = klstm.lstm_backward_reference(dh_seq, x, *ref_f, W, U, activation)
        vec_b = klstm.lstm_backward_vectorized(dh_seq, x, *vec_f, W, U, activation)
        for name, r, v in zip(("dx", "dW", "dU", "db"), ref_b, vec_b):
            assert_equiv(r, v, f"backward {name}")

    def test_empty_batch(self):
        x, W, U, b = _random_lstm(np.random.default_rng(0), 1, 3, 6, 8)
        x = x[:0]
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.use_backend(backend):
                hs, cs, gates = klstm.lstm_forward(x, W, U, b, "elu")
            assert hs.shape == (0, 4, 8)
            assert gates.shape == (0, 3, 32)

    def test_invalid_activation(self):
        x, W, U, b = _random_lstm(np.random.default_rng(0), 2, 3, 6, 8)
        with pytest.raises(ValueError):
            klstm.lstm_forward_vectorized(x, W, U, b, "relu")
        with pytest.raises(ValueError):
            klstm.lstm_forward_reference(x, W, U, b, "relu")

    def test_layer_training_matches_across_backends(self):
        # One full forward/backward through the LSTM layer class under each
        # backend yields the same gradients.
        from repro.ml.lstm import LSTM

        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 5, 6))
        grad = rng.normal(size=(12, 16))
        results = {}
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.use_backend(backend):
                layer = LSTM(6, 16, activation="elu", rng=123)
                out = layer.forward(x, training=True)
                dx = layer.backward(grad)
                results[backend] = (out, dx, [g.copy() for g in layer.grads])
        ref_out, ref_dx, ref_grads = results["reference"]
        vec_out, vec_dx, vec_grads = results["vectorized"]
        assert_equiv(ref_out, vec_out, "layer output")
        assert_equiv(ref_dx, vec_dx, "layer dx")
        for i, (rg, vg) in enumerate(zip(ref_grads, vec_grads)):
            assert_equiv(rg, vg, f"layer grad {i}")


# ---------------------------------------------------------------------------
# Pooled batched inference
# ---------------------------------------------------------------------------


class TestPredictBatched:
    def _model(self):
        from repro.ml.layers import Dense, Softmax
        from repro.ml.model import Sequential

        model = Sequential([Dense(4, 8, rng=0), Dense(8, 3, rng=1), Softmax()], n_classes=3)
        return model.compile()

    def test_matches_per_array_predictions(self):
        rng = np.random.default_rng(1)
        model = self._model()
        arrays = [rng.normal(size=(n, 4)) for n in (17, 0, 5, 120)]
        batched = model.predict_batched(arrays)
        assert len(batched) == len(arrays)
        for a, probs in zip(arrays, batched):
            assert probs.shape == (a.shape[0], 3)
            if a.shape[0]:
                assert_equiv(model.predict_proba(a), probs, "pooled probs")

    def test_empty_inputs(self):
        model = self._model()
        assert model.predict_batched([]) == []
        out = model.predict_batched([np.empty((0, 4))])
        assert out[0].shape == (0, 3)


# ---------------------------------------------------------------------------
# Drift search
# ---------------------------------------------------------------------------


def _image(class_map, pixel_size_m=10.0, origin=(0.0, 0.0)):
    ny, nx = class_map.shape
    return S2Image(
        bands=np.zeros((4, ny, nx)),
        origin_x_m=origin[0],
        origin_y_m=origin[1],
        pixel_size_m=pixel_size_m,
        acquisition_time=datetime(2019, 11, 1),
        cloud_optical_depth=np.zeros((ny, nx)),
        shadow_mask=np.zeros((ny, nx), dtype=bool),
        truth_class_map=class_map,
    )


def _drift_fields(estimate):
    return (estimate.dx_m, estimate.dy_m, estimate.score, estimate.n_candidates)


def _compare_drift(image, class_map, x, y, h, **search):
    with kernels.use_backend("reference"):
        ref = estimate_drift(image, class_map, x, y, h, **search)
    with kernels.use_backend("vectorized"):
        vec = estimate_drift(image, class_map, x, y, h, **search)
    # Exact equality of every field; -inf scores compare equal.
    assert _drift_fields(ref) == _drift_fields(vec), (ref, vec)
    return ref


def _random_track(rng, extent_m, n):
    """A straight track crossing the image, with a little along-track jitter."""
    t = np.sort(rng.uniform(-0.1, 1.1, n))
    x0, y0, x1, y1 = rng.uniform(0.0, extent_m, 4)
    return x0 + t * (x1 - x0), y0 + t * (y1 - y0)


class TestDriftKernel:
    @settings(**HYPOTHESIS_SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(4, 60),
        n=st.integers(2, 300),
        pixel_size_m=st.sampled_from([10.0, 20.0, 60.0]),
    )
    def test_random_maps_and_tracks(self, seed, size, n, pixel_size_m):
        rng = np.random.default_rng(seed)
        class_map = rng.integers(-1, 3, (size, size + 3)).astype(np.int8)
        image = _image(class_map, pixel_size_m)
        x, y = _random_track(rng, size * pixel_size_m, n)
        # Heights loosely follow the true labels so the score has a peak.
        row, col = image.pixel_index(x, y)
        h = 0.1 * (class_map[row, col] == CLASS_THICK_ICE) + rng.normal(0.0, 0.05, n)
        _compare_drift(
            image, class_map, x, y, h, max_shift_m=200.0, coarse_step_m=50.0, fine_step_m=25.0
        )

    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200))
    def test_tied_candidates_keep_the_first_maximum(self, seed, n):
        # 200 m pixels under 25/50 m steps: many candidates read exactly the
        # same pixels, so exact score ties are everywhere.
        rng = np.random.default_rng(seed)
        class_map = rng.integers(0, 3, (6, 6)).astype(np.int8)
        image = _image(class_map, pixel_size_m=200.0)
        x, y = _random_track(rng, 1_200.0, n)
        h = rng.normal(0.0, 0.1, n)
        _compare_drift(
            image, class_map, x, y, h, max_shift_m=300.0, coarse_step_m=50.0, fine_step_m=25.0
        )

    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), center=st.sampled_from([-790.0, 790.0]))
    def test_duplicate_clipped_candidates(self, seed, center):
        # Offsets around a centre near +-max_shift clip onto the boundary,
        # so the candidate lists repeat the clipped shift.
        rng = np.random.default_rng(seed)
        class_map = rng.integers(0, 3, (40, 40)).astype(np.int8)
        image = _image(class_map, pixel_size_m=50.0)
        x, y = _random_track(rng, 2_000.0, 150)
        h = rng.normal(0.0, 0.1, 150)
        offsets = np.arange(-50.0, 50.0 + 12.5, 25.0)
        dxs = np.clip(offsets + center, -800.0, 800.0)
        dys = np.clip(offsets - center, -800.0, 800.0)
        assert np.unique(dxs).size < dxs.size
        args = (class_map, image, x, y, h, dxs, dys)
        assert kdrift.drift_search_reference(*args) == kdrift.drift_search_vectorized(*args)
        _compare_drift(
            image, class_map, x, y, h, max_shift_m=800.0, coarse_step_m=50.0, fine_step_m=25.0
        )

    def test_constant_rank_map_scores_minus_inf(self):
        rng = np.random.default_rng(2)
        class_map = np.full((30, 30), CLASS_THICK_ICE, dtype=np.int8)
        image = _image(class_map)
        x, y = _random_track(rng, 300.0, 80)
        h = rng.normal(0.0, 0.1, 80)
        args = (class_map, image, x, y, h, np.array([-25.0, 0.0]), np.array([0.0, 25.0]))
        assert kdrift.drift_search_vectorized(*args) == (0.0, 0.0, -np.inf, 4)
        assert kdrift.drift_search_reference(*args) == (0.0, 0.0, -np.inf, 4)
        est = _compare_drift(image, class_map, x, y, h, max_shift_m=100.0)
        assert est.score == -np.inf and est.distance_m == 0.0

    def test_all_nan_heights_but_one(self):
        rng = np.random.default_rng(4)
        class_map = rng.integers(0, 3, (30, 30)).astype(np.int8)
        image = _image(class_map)
        x, y = _random_track(rng, 300.0, 50)
        h = np.full(50, np.nan)
        h[17] = 0.3
        est = _compare_drift(image, class_map, x, y, h, max_shift_m=100.0)
        assert est.score == -np.inf and est.distance_m == 0.0


# ---------------------------------------------------------------------------
# Fixed-window resampling reductions
# ---------------------------------------------------------------------------


def assert_identical(a, b, label):
    """Same dtype, shape, NaN pattern and bytes everywhere else."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, label
    if a.dtype.kind == "f":
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b)), f"{label}: NaN pattern differs"
        a, b = a[~nan], b[~nan]
    assert a.tobytes() == b.tobytes(), f"{label}: values differ"


def _boundaries(rng, n_windows, max_count, offset=0):
    counts = rng.integers(0, max_count + 1, n_windows)
    return offset + np.concatenate([[0], np.cumsum(counts)])


def _compare_grouped(values, boundaries):
    assert_identical(
        kresampling.grouped_median_reference(values, boundaries),
        kresampling.grouped_median_vectorized(values, boundaries),
        "median",
    )


def _compare_majority(codes, boundaries):
    assert_identical(
        kresampling.grouped_majority_reference(codes, boundaries),
        kresampling.grouped_majority_vectorized(codes, boundaries),
        "majority",
    )


class TestResamplingKernels:
    @settings(**HYPOTHESIS_SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_windows=st.integers(1, 300),
        max_count=st.integers(0, 9),
        offset=st.integers(0, 5),
    )
    def test_random_windows(self, seed, n_windows, max_count, offset):
        # Empty, single-photon, odd and even windows; photons outside the
        # first/last boundary must not leak in.
        rng = np.random.default_rng(seed)
        boundaries = _boundaries(rng, n_windows, max_count, offset)
        n = int(boundaries[-1]) + offset
        values = np.round(rng.normal(0.0, 0.5, n), 2)  # rounding makes ties
        _compare_grouped(values, boundaries)
        codes = rng.integers(-1, 3, n).astype(np.int8)
        _compare_majority(codes, boundaries)

    def test_all_empty_windows(self):
        boundaries = np.zeros(6, dtype=np.int64)
        _compare_grouped(np.empty(0), boundaries)
        _compare_majority(np.empty(0, dtype=np.int8), boundaries)

    def test_single_photon_and_even_count_windows(self):
        values = np.array([0.3, 1.0, 2.0, -1.0, 5.0, 4.0, 0.5])
        boundaries = np.array([0, 1, 1, 3, 7])  # 1, 0, 2 and 4 photons
        _compare_grouped(values, boundaries)
        med = kresampling.grouped_median_vectorized(values, boundaries)
        assert med[0] == 0.3 and np.isnan(med[1]) and med[2] == 1.5 and med[3] == 2.25

    def test_nan_photon_poisons_only_its_window(self):
        values = np.array([1.0, np.nan, 3.0, 2.0, 4.0])
        boundaries = np.array([0, 3, 5])
        _compare_grouped(values, boundaries)
        med = kresampling.grouped_median_vectorized(values, boundaries)
        assert np.isnan(med[0]) and med[1] == 3.0

    def test_class_count_tie_takes_the_smallest_class(self):
        codes = np.array([2, 1, 2, 1, 0, -1, -1, 0], dtype=np.int8)
        boundaries = np.array([0, 4, 8])
        _compare_majority(codes, boundaries)
        assert list(kresampling.grouped_majority_vectorized(codes, boundaries)) == [1, -1]

    @settings(**HYPOTHESIS_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3_000))
    def test_resample_fixed_window_fields_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        along = np.sort(rng.uniform(0.0, n * 0.7, n))
        beam = BeamData(
            name="gt1r",
            along_track_m=along,
            height_m=np.round(rng.normal(0.2, 0.3, n), 3),
            lat_deg=-75.0 + along * 1e-5,
            lon_deg=170.0 + along * 1e-5,
            x_m=along * 0.6,
            y_m=along * 0.8,
            delta_time_s=along / 7000.0,
            signal_conf=rng.integers(0, 5, n),
            is_signal=rng.random(n) < 0.8,
            background_rate_hz=rng.uniform(1e5, 1e6, n),
            truth_class=rng.integers(-1, 3, n),
        )
        with kernels.use_backend("reference"):
            ref = resample_fixed_window(beam)
        with kernels.use_backend("vectorized"):
            vec = resample_fixed_window(beam)
        for name, value in ref.as_dict().items():
            assert_identical(value, vec.as_dict()[name], name)


# ---------------------------------------------------------------------------
# Lead stamping (bounding-box evaluation vs the full-grid original)
# ---------------------------------------------------------------------------


def _add_linear_leads_full_grid(class_map, n_leads, lead_class, width_px, rng):
    """The original formulation: two full-grid planes per lead."""
    rng = np.random.default_rng(rng)
    out = np.array(class_map, copy=True)
    ny, nx = out.shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    for _ in range(n_leads):
        x0, y0 = rng.uniform(0, nx), rng.uniform(0, ny)
        angle = rng.uniform(0, np.pi)
        length = rng.uniform(0.3, 1.0) * max(nx, ny)
        dx, dy = np.cos(angle), np.sin(angle)
        dist = np.abs((xx - x0) * dy - (yy - y0) * dx)
        along = (xx - x0) * dx + (yy - y0) * dy
        mask = (dist <= width_px / 2.0) & (np.abs(along) <= length / 2.0)
        out[mask] = lead_class
    return out


class TestLeadStamping:
    @settings(**HYPOTHESIS_SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(1, 90),
        nx=st.integers(1, 90),
        n_leads=st.integers(0, 10),
        width_px=st.integers(1, 12),
    )
    def test_matches_full_grid(self, seed, ny, nx, n_leads, width_px):
        base = np.random.default_rng(seed).integers(0, 3, (ny, nx)).astype(np.int8)
        expected = _add_linear_leads_full_grid(base, n_leads, 2, width_px, seed)
        assert_identical(add_linear_leads(base, n_leads, 2, width_px, rng=seed), expected, "leads")

    def test_leads_crossing_the_image_edge(self):
        # Leads up to the full image length, centred anywhere: most run off
        # the grid, so their bounding boxes are clipped.
        base = np.zeros((64, 48), dtype=np.int8)
        out = add_linear_leads(base, 12, 2, 3, rng=9)
        assert_identical(out, _add_linear_leads_full_grid(base, 12, 2, 3, 9), "edge leads")
        border = np.concatenate([out[0], out[-1], out[:, 0], out[:, -1]])
        assert (border == 2).any()


# ---------------------------------------------------------------------------
# Gaussian random fields (pruned spectrum vs full fft2/ifft2)
# ---------------------------------------------------------------------------


def _compare_random_field(ny, nx, correlation_length_px, seed):
    spectrum, n_cols = krandom_field.half_spectrum(
        (ny, nx), correlation_length_px, np.random.default_rng(seed)
    )
    ref = krandom_field.inverse_reference(spectrum.copy(), n_cols, nx)
    vec = krandom_field.inverse_vectorized(spectrum.copy(), n_cols, nx)
    assert ref.tobytes() == vec.tobytes(), "spectral field differs"
    with kernels.use_backend("reference"):
        ref = gaussian_random_field((ny, nx), correlation_length_px, rng=seed)
    with kernels.use_backend("vectorized"):
        vec = gaussian_random_field((ny, nx), correlation_length_px, rng=seed)
    assert ref.dtype == vec.dtype and ref.shape == vec.shape == (ny, nx)
    assert ref.tobytes() == vec.tobytes(), "random field differs"
    return vec


class TestRandomFieldKernel:
    @settings(**HYPOTHESIS_SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(1, 96),
        nx=st.integers(1, 96),
        correlation_length_px=st.floats(0.3, 500.0),
    )
    def test_random_shapes_and_lengths(self, seed, ny, nx, correlation_length_px):
        _compare_random_field(ny, nx, correlation_length_px, seed)

    @pytest.mark.parametrize("shape", [(97, 89), (61, 64), (1, 50), (50, 1), (2, 3)])
    def test_odd_prime_and_thin_shapes(self, shape):
        for correlation_length_px in (0.3, 2.5, 12.0, 120.0):
            _compare_random_field(*shape, correlation_length_px, 3)

    def test_no_pruning(self):
        # At L = 0.3 px no row or column of the spectrum underflows.
        ky = np.fft.fftfreq(64)
        assert np.all(np.exp(-0.5 * ky**2 * (0.3 * 2.0 * np.pi) ** 2) > 0.0)
        _compare_random_field(64, 64, 0.3, 5)

    def test_dc_only_spectrum_is_the_zero_field(self):
        # At L = 500 px only the DC term survives: the field is constant,
        # its spread is below 1e-12, and both backends return zeros.
        field = _compare_random_field(48, 40, 500.0, 6)
        assert not field.any()

    def test_single_pixel_is_the_zero_field(self):
        assert not _compare_random_field(1, 1, 4.0, 7).any()
