"""Tests for the random-field helpers behind the scene generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import random_field
from repro.surface.fields import add_linear_leads, gaussian_random_field, smooth_threshold_classes


class TestGaussianRandomField:
    def test_shape_and_normalisation(self):
        field = gaussian_random_field((64, 80), 8.0, rng=0)
        assert field.shape == (64, 80)
        assert abs(field.mean()) < 1e-8
        assert field.std() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_in_seed(self):
        a = gaussian_random_field((32, 32), 4.0, rng=7)
        b = gaussian_random_field((32, 32), 4.0, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_larger_correlation_is_smoother(self):
        rough = gaussian_random_field((128, 128), 2.0, rng=1)
        smooth = gaussian_random_field((128, 128), 20.0, rng=1)
        # Mean squared nearest-neighbour difference is smaller for the
        # longer correlation length.
        assert np.mean(np.diff(smooth, axis=0) ** 2) < np.mean(np.diff(rough, axis=0) ** 2)

    @pytest.mark.parametrize("shape", [(0, 10), (10, 0)])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            gaussian_random_field(shape, 4.0)

    def test_nonpositive_correlation_rejected(self):
        with pytest.raises(ValueError):
            gaussian_random_field((8, 8), 0.0)

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_nonfinite_correlation_rejected(self, length):
        with pytest.raises(ValueError, match="finite"):
            gaussian_random_field((8, 8), length)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            gaussian_random_field((8, 8, 8), 2.0)  # type: ignore[arg-type]


class TestSpectralEdgeCases:
    """Shapes and lengths where the drawn half-spectrum has self-mirrored columns or rows."""

    CASES = [
        ((48, 41), 2.0),  # odd nx: no Nyquist column
        ((48, 40), 2.0),  # even nx, small L: the Nyquist column survives
        ((47, 40), 0.3),  # odd ny, nothing underflows
        ((1, 40), 2.0),  # ny = 1: every column is its own mirror in y
        ((40, 1), 2.0),  # nx = 1: only the kx = 0 column
    ]

    @pytest.mark.parametrize("shape, length", CASES)
    def test_field_is_real_finite_and_normalised(self, shape, length):
        field = gaussian_random_field(shape, length, rng=11)
        assert field.shape == shape and field.dtype == np.float64
        assert np.all(np.isfinite(field))
        assert abs(field.mean()) < 1e-12
        assert field.std() == pytest.approx(1.0, abs=1e-12)

    def test_nyquist_column_survives_in_the_even_case(self):
        kx = np.fft.rfftfreq(40)
        assert random_field._filter(kx[-1], 0.0, 2.0) > 0.0

    @pytest.mark.parametrize("shape, length", CASES)
    def test_drawn_spectrum_is_hermitian(self, shape, length):
        # irfft2 drops the imaginary part of a non-Hermitian kx = 0 or
        # Nyquist column; transforming back then gives other coefficients.
        spectrum, _ = random_field.half_spectrum(shape, length, np.random.default_rng(5))
        field = random_field.spectral_field(shape, length, np.random.default_rng(5))
        np.testing.assert_allclose(np.fft.rfft2(field, norm="ortho"), spectrum, atol=1e-12)

    @pytest.mark.parametrize("shape, length", [((1, 1), 2.0), ((48, 40), 500.0)])
    def test_constant_field_is_exact_zeros(self, shape, length):
        # One pixel, or only the DC term survives: the spread is below 1e-12.
        field = gaussian_random_field(shape, length, rng=11)
        assert field.shape == shape and not field.any()


class TestSmoothThresholdClasses:
    def test_fractions_respected(self):
        field = gaussian_random_field((200, 200), 5.0, rng=3)
        classes = smooth_threshold_classes(field, (0.1, 0.2, 0.7))
        fractions = np.bincount(classes.ravel(), minlength=3) / classes.size
        assert fractions[0] == pytest.approx(0.1, abs=0.02)
        assert fractions[1] == pytest.approx(0.2, abs=0.02)
        assert fractions[2] == pytest.approx(0.7, abs=0.02)

    def test_class_order_follows_field_values(self):
        field = np.linspace(0, 1, 100).reshape(10, 10)
        classes = smooth_threshold_classes(field, (0.5, 0.5))
        assert classes.ravel()[0] == 0
        assert classes.ravel()[-1] == 1

    def test_unnormalised_fractions_are_normalised(self):
        field = gaussian_random_field((50, 50), 3.0, rng=4)
        a = smooth_threshold_classes(field, (1.0, 1.0))
        b = smooth_threshold_classes(field, (0.5, 0.5))
        np.testing.assert_array_equal(a, b)

    def test_invalid_fractions_rejected(self):
        field = np.zeros((4, 4))
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, ())
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, (-0.1, 1.1))
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, (0.0, 0.0))

    @given(
        n_classes=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_all_classes_within_range(self, n_classes, seed):
        field = gaussian_random_field((40, 40), 4.0, rng=seed)
        fractions = tuple(1.0 / n_classes for _ in range(n_classes))
        classes = smooth_threshold_classes(field, fractions)
        assert classes.min() >= 0
        assert classes.max() <= n_classes - 1


class TestAddLinearLeads:
    def test_leads_add_target_class(self):
        base = np.zeros((100, 100), dtype=np.int8)
        out = add_linear_leads(base, n_leads=5, lead_class=2, width_px=3, rng=0)
        assert (out == 2).any()
        # The input is not modified.
        assert not (base == 2).any()

    def test_zero_leads_is_identity(self):
        base = np.ones((20, 20), dtype=np.int8)
        out = add_linear_leads(base, 0, 2, 3, rng=0)
        np.testing.assert_array_equal(out, base)

    def test_lead_pixels_are_narrow(self):
        base = np.zeros((200, 200), dtype=np.int8)
        out = add_linear_leads(base, n_leads=1, lead_class=1, width_px=2, rng=5)
        # A single 2-pixel-wide lead across a 200x200 grid covers a small fraction.
        assert 0 < (out == 1).mean() < 0.05

    def test_invalid_arguments_rejected(self):
        base = np.zeros((10, 10), dtype=np.int8)
        with pytest.raises(ValueError):
            add_linear_leads(base, -1, 1, 1)
        with pytest.raises(ValueError):
            add_linear_leads(base, 1, 1, 0)
