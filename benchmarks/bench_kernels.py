"""Reference-vs-vectorized timings for the ``repro.kernels`` hot paths.

Six kernel pairs are timed on deterministic, ATL03-representative inputs:

* **windowed sea-surface estimation** — a 400 km track whose open-water
  candidates cluster into discrete leads (contiguous 2 m segments), the way
  sea ice actually fractures; 10 km windows sliding by 5 km, NASA method;
* **confidence binning** — 400 k photons in along-track order at ~4
  photons/m over 100 km (20 m bins, ±15 m telemetry band);
* **LSTM forward/backward** — a pooled campaign minibatch of 8 k sequences
  of five 2 m segments with six features, 16 units;
* **drift search** — the coarse 33 x 33 candidate grid (+-800 m, 50 m steps)
  of one granule: a 3,200-segment track over an 800 x 800-pixel class map;
* **2 m resampling** — ``resample_fixed_window`` over a 6.4 km beam of
  ~36 k photons, under each kernel backend;
* **random fields** — the inverse transforms of one granule's four
  800 x 800-pixel drawn spectra (concentration, texture, ridge and cloud:
  correlation lengths 250, 62.5, 25 and 120 px): the full-spectrum
  ``irfft2`` against the inverse that transforms only the surviving
  columns along ``y``.

Each pair is asserted equivalent (1e-10; the drift, resampling and
random-field pairs exactly) before it is timed, so a benchmark run doubles
as an integration check.  Each pair is one ``GATES`` row of
``benchmarks/check_regression.py``, named after the kernel
(``sea_surface_nasa``, ``confidence_binning``, ``lstm_forward``,
``lstm_backward``, ``drift``, ``resample``, ``random_field``); the gate
turns the emitted ``--benchmark-json`` file into per-kernel speedups and
compares them against the committed ratios in
``benchmarks/results/kernel_baselines.json`` (machine-independent: ratios,
not absolute times).

Run:  python -m pytest benchmarks/bench_kernels.py --benchmark-json=bench.json
"""

from __future__ import annotations

import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import kernels
from repro.atl03.granule import BeamData
from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE
from repro.kernels import confidence as kconf
from repro.kernels import drift as kdrift
from repro.kernels import lstm as klstm
from repro.kernels import random_field as krandom_field
from repro.kernels import sea_surface as ksea
from repro.resampling.window import resample_fixed_window
from repro.sentinel2.scene import S2Image
from repro.surface.fields import (
    add_linear_leads,
    gaussian_random_field,
    smooth_threshold_classes,
)

ROUNDS = dict(rounds=7, iterations=1, warmup_rounds=2)


def assert_equivalent(ref, vec, atol=1e-10):
    for r, v in zip(ref, vec):
        assert np.allclose(r, v, atol=atol, rtol=0.0, equal_nan=True)


# ---------------------------------------------------------------------------
# Windowed sea-surface estimation (NASA method, clustered leads)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sea_surface_scene():
    rng = np.random.default_rng(7)
    track_m = 400_000.0
    alongs = []
    pos = rng.uniform(0.0, 1_200.0)
    while pos < track_m:
        width = rng.uniform(20.0, 250.0)
        n = max(int(width / 2.0), 1)
        alongs.append(pos + np.arange(n) * 2.0 + rng.normal(0.0, 0.2, n))
        pos += width + rng.exponential(1_200.0)
    along = np.sort(np.concatenate(alongs))
    height = rng.normal(0.05, 0.03, along.size)
    error = np.clip(rng.uniform(0.02, 0.1, along.size), 0.02, None)
    step, length = 5_000.0, 10_000.0
    start = float(along.min())
    n_windows = max(int(np.ceil((float(along.max()) - start) / step)), 1)
    starts = start + np.arange(n_windows) * step
    stops = starts + length
    centers = 0.5 * (starts + stops)
    args = (along, height, error, starts, stops, centers, "nasa", 3)
    assert_equivalent(
        ksea.window_estimates_reference(*args), ksea.window_estimates_vectorized(*args)
    )
    return args


def test_sea_surface_nasa_reference(benchmark, sea_surface_scene):
    benchmark.pedantic(ksea.window_estimates_reference, args=sea_surface_scene, **ROUNDS)


def test_sea_surface_nasa_vectorized(benchmark, sea_surface_scene):
    benchmark.pedantic(ksea.window_estimates_vectorized, args=sea_surface_scene, **ROUNDS)


# ---------------------------------------------------------------------------
# ATL03 confidence binning
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def photon_cloud():
    rng = np.random.default_rng(11)
    n = 400_000
    track_m = 100_000.0
    along = np.sort(rng.uniform(0.0, track_m, n))
    surface = rng.random(n) < 0.75
    height = np.where(
        surface, rng.normal(0.0, 0.2, n), rng.uniform(-15.0, 15.0, n)
    )
    n_bins = int(np.ceil((float(along.max()) - float(along.min())) / 20.0))
    bin_edges = float(along.min()) + np.arange(n_bins + 1) * 20.0
    args = (along, height, bin_edges, 0.25)
    ref = kconf.modal_height_per_bin_reference(*args)
    vec = kconf.modal_height_per_bin_vectorized(*args)
    assert_equivalent((ref,), (vec,))
    return args


def test_confidence_binning_reference(benchmark, photon_cloud):
    benchmark.pedantic(kconf.modal_height_per_bin_reference, args=photon_cloud, **ROUNDS)


def test_confidence_binning_vectorized(benchmark, photon_cloud):
    benchmark.pedantic(kconf.modal_height_per_bin_vectorized, args=photon_cloud, **ROUNDS)


# ---------------------------------------------------------------------------
# LSTM forward / backward over a pooled minibatch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lstm_batch():
    rng = np.random.default_rng(3)
    batch, T, n_in, units = 8_000, 5, 6, 16
    x = rng.normal(size=(batch, T, n_in))
    W = rng.normal(size=(n_in, 4 * units)) * 0.3
    U = rng.normal(size=(units, 4 * units)) * 0.3
    b = rng.normal(size=4 * units) * 0.1
    dh_seq = rng.normal(size=(batch, T, units))
    fwd_args = (x, W, U, b, "elu")
    ref = klstm.lstm_forward_reference(*fwd_args)
    vec = klstm.lstm_forward_vectorized(*fwd_args)
    assert_equivalent(ref, vec)
    bwd_args = (dh_seq, x, *ref, W, U, "elu")
    assert_equivalent(
        klstm.lstm_backward_reference(*bwd_args),
        klstm.lstm_backward_vectorized(*bwd_args),
    )
    return fwd_args, bwd_args


def test_lstm_forward_reference(benchmark, lstm_batch):
    benchmark.pedantic(klstm.lstm_forward_reference, args=lstm_batch[0], **ROUNDS)


def test_lstm_forward_vectorized(benchmark, lstm_batch):
    benchmark.pedantic(klstm.lstm_forward_vectorized, args=lstm_batch[0], **ROUNDS)


def test_lstm_backward_reference(benchmark, lstm_batch):
    benchmark.pedantic(klstm.lstm_backward_reference, args=lstm_batch[1], **ROUNDS)


def test_lstm_backward_vectorized(benchmark, lstm_batch):
    benchmark.pedantic(klstm.lstm_backward_vectorized, args=lstm_batch[1], **ROUNDS)


# ---------------------------------------------------------------------------
# Drift search over the coarse candidate grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def drift_search_args():
    rng = np.random.default_rng(5)
    ny = nx = 800
    field = gaussian_random_field((ny, nx), 40.0, rng)
    # Lowest field values are thick ice (class 0), highest open water (2).
    class_map = smooth_threshold_classes(field, (0.70, 0.18, 0.12))
    class_map = add_linear_leads(class_map, 8, CLASS_OPEN_WATER, 3, rng)
    image = S2Image(
        bands=np.zeros((4, ny, nx)),
        origin_x_m=0.0,
        origin_y_m=0.0,
        pixel_size_m=10.0,
        acquisition_time=datetime(2019, 11, 1),
        cloud_optical_depth=np.zeros((ny, nx)),
        shadow_mask=np.zeros((ny, nx), dtype=bool),
        truth_class_map=class_map,
    )
    # A 6.4 km track of 2 m segments whose heights follow the labels of an
    # image drifted by (120, -80) m.
    along = np.arange(3_200) * 2.0
    x = 800.0 + 0.8 * along
    y = 1_000.0 + 0.6 * along
    labels = class_map[image.pixel_index(x + 120.0, y - 80.0)]
    rank = np.where(labels == CLASS_OPEN_WATER, 0.0, np.where(labels == CLASS_THICK_ICE, 2.0, 1.0))
    height = 0.15 * rank + rng.normal(0.0, 0.08, along.size)
    offsets = np.arange(-800.0, 825.0, 50.0)
    args = (class_map, image, x, y, height, offsets, offsets)
    assert kdrift.drift_search_reference(*args) == kdrift.drift_search_vectorized(*args)
    return args


def test_drift_reference(benchmark, drift_search_args):
    benchmark.pedantic(kdrift.drift_search_reference, args=drift_search_args, **ROUNDS)


def test_drift_vectorized(benchmark, drift_search_args):
    benchmark.pedantic(kdrift.drift_search_vectorized, args=drift_search_args, **ROUNDS)


# ---------------------------------------------------------------------------
# 2 m fixed-window resampling of one beam
# ---------------------------------------------------------------------------


def _resample(backend, beam):
    with kernels.use_backend(backend):
        return resample_fixed_window(beam)


@pytest.fixture(scope="module")
def beam():
    rng = np.random.default_rng(13)
    n = 36_000
    along = np.sort(rng.uniform(0.0, 6_400.0, n))
    beam = BeamData(
        name="gt2r",
        along_track_m=along,
        height_m=rng.normal(0.25, 0.2, n),
        lat_deg=-75.0 + along * 9e-6,
        lon_deg=170.0 + along * 2e-5,
        x_m=300_000.0 + 0.8 * along,
        y_m=-1_300_000.0 + 0.6 * along,
        delta_time_s=along / 7_000.0,
        signal_conf=rng.choice(np.array([0, 2, 3, 4]), n, p=[0.02, 0.02, 0.16, 0.8]),
        is_signal=np.ones(n, dtype=bool),
        background_rate_hz=rng.uniform(1e5, 1e6, n),
        truth_class=rng.choice(np.array([0, 1, 2]), n, p=[0.7, 0.18, 0.12]),
    )
    ref = _resample("reference", beam).as_dict()
    vec = _resample("vectorized", beam).as_dict()
    for name, value in ref.items():
        assert np.array_equal(value, vec[name], equal_nan=value.dtype.kind == "f"), name
    return beam


def test_resample_reference(benchmark, beam):
    benchmark.pedantic(_resample, args=("reference", beam), **ROUNDS)


def test_resample_vectorized(benchmark, beam):
    benchmark.pedantic(_resample, args=("vectorized", beam), **ROUNDS)


# ---------------------------------------------------------------------------
# Spectral synthesis of one granule's four random fields
# ---------------------------------------------------------------------------

#: Correlation lengths (px) of an 8 km scene's concentration, texture,
#: ridge and cloud fields at 10 m pixels.
RANDOM_FIELD_LENGTHS_PX = (250.0, 62.5, 25.0, 120.0)


def _spectra():
    rng = np.random.default_rng(17)
    return [krandom_field.half_spectrum((800, 800), L, rng) for L in RANDOM_FIELD_LENGTHS_PX]


def _invert(inverse, spectra):
    return [inverse(spectrum, n_cols, 800) for spectrum, n_cols in spectra]


@pytest.fixture(scope="module")
def random_fields_equal():
    ref = _invert(krandom_field.inverse_reference, _spectra())
    vec = _invert(krandom_field.inverse_vectorized, _spectra())
    for r, v in zip(ref, vec):
        assert r.tobytes() == v.tobytes()


def _fresh_spectra(inverse):
    """pedantic ``setup``: the vectorized inverse overwrites its input, so
    every round inverts freshly drawn spectra, drawn outside the timing."""
    return lambda: ((inverse, _spectra()), {})


def test_random_field_reference(benchmark, random_fields_equal):
    benchmark.pedantic(_invert, setup=_fresh_spectra(krandom_field.inverse_reference), **ROUNDS)


def test_random_field_vectorized(benchmark, random_fields_equal):
    benchmark.pedantic(_invert, setup=_fresh_spectra(krandom_field.inverse_vectorized), **ROUNDS)
