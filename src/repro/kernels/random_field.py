"""Spectral synthesis of the scene random fields.

:func:`repro.surface.fields.gaussian_random_field` needs a real Gaussian
field whose power spectrum is the filter ``exp(-0.5 k² (2πL)²)`` (``k`` in
cycles per pixel, ``L`` the correlation length in pixels), so that its
autocorrelation is ``exp(-r² / 2L²)``.  Filtering white noise in the Fourier
domain gives that field, but most of the work is wasted: the filter
underflows to exactly ``0.0`` wherever ``|k| > 6.14 / L`` (``exp`` of less
than about -745), so at L = 250 px only 39 of 800 rows survive.

The kernel draws the spectrum directly instead.  The underflow rule defines
the drawn support: the ``fftfreq(ny)`` rows times the ``rfftfreq(nx)``
columns of the half-spectrum where the filter is non-zero (a row's largest
value is at ``kx = 0``, a column's at ``ky = 0``).  Every coefficient of
that block is a complex Gaussian with ``E|c|² = filter``.  The ``kx = 0``
column, and the Nyquist column ``kx = nx / 2`` of an even ``nx`` when it
survives, are their own mirror images, so they are made Hermitian:
``c(-ky) = conj(c(ky))``, with ``(c + conj(c(-ky))) / √2``, which keeps
``E|c|²`` and makes the self-mirrored ``ky = 0`` and ``ky = ny / 2``
entries real.  Those are the statistics of the orthonormal FFT of unit
white noise, so the field is distributed as the filtered white noise was,
with the same variance.

:func:`half_spectrum` draws the coefficients into one ``(ny, nx // 2 + 1)``
complex array, and :func:`inverse` and its oracle invert it to the same
bytes of the real ``(ny, nx)`` field:

* the oracle (:func:`repro.kernels.reference.inverse_reference`): the
  full-spectrum ``irfft2``;
* :func:`inverse`: the same 1-D transforms in the same order (``ifft`` along
  ``y``, then ``irfft`` along ``x``), but the ``y`` pass runs, in place,
  only on the surviving columns.  Every other column is all zero, and so
  is its transform, up to the sign of its zeros, which no non-zero sum in
  the ``x`` pass can see (the equivalence tests compare bytes).
"""

from __future__ import annotations

import numpy as np


def _filter(kx: np.ndarray, ky: np.ndarray, correlation_length_px: float) -> np.ndarray:
    """Gaussian spectral filter ``exp(-(k * L)^2 / 2)`` with ``L`` in pixels."""
    k2 = kx**2 + ky**2
    return np.exp(-0.5 * k2 * (correlation_length_px * 2.0 * np.pi) ** 2)


def half_spectrum(
    shape: tuple[int, int], correlation_length_px: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """The drawn half-spectrum, ``(ny, nx // 2 + 1)``, and its surviving column count.

    Only the block where the filter is non-zero is drawn: rows where it is
    non-zero at ``kx = 0`` (``0 .. r`` and their mirrors at the end) times
    the leading columns where it is non-zero at ``ky = 0``.
    """
    ny, nx = shape
    filter_y = _filter(0.0, np.fft.fftfreq(ny), correlation_length_px)
    filter_x = _filter(np.fft.rfftfreq(nx), 0.0, correlation_length_px)
    rows = np.flatnonzero(filter_y)
    n_cols = np.count_nonzero(filter_x)
    coeffs = rng.standard_normal((rows.size, 2 * n_cols)).view(complex)
    mirror = np.searchsorted(rows, -rows % ny)
    hermitian = [0] if nx % 2 or n_cols <= nx // 2 else [0, n_cols - 1]
    for col in hermitian:
        column = coeffs[:, col]
        coeffs[:, col] = (column + column[mirror].conj()) / np.sqrt(2.0)
    # The filter is separable, exp(-a (kx² + ky²)) = exp(-a ky²) exp(-a kx²),
    # so its square root on the block is an outer product of 1-D roots.
    coeffs *= np.sqrt(0.5 * filter_y[rows])[:, None] * np.sqrt(filter_x[:n_cols])
    spectrum = np.zeros((ny, nx // 2 + 1), dtype=complex)
    spectrum[rows, :n_cols] = coeffs
    return spectrum, n_cols


def inverse(spectrum: np.ndarray, n_cols: int, nx: int) -> np.ndarray:
    """The inverse transforms, with the ``y`` pass restricted to the first ``n_cols`` columns.

    The ``y`` pass runs in place: it overwrites those columns of ``spectrum``.
    """
    block = spectrum[:, :n_cols]
    np.fft.ifft(block, axis=0, norm="ortho", out=block)
    return np.fft.irfft(spectrum, n=nx, axis=1, norm="ortho")


def spectral_field(
    shape: tuple[int, int], correlation_length_px: float, rng: np.random.Generator
) -> np.ndarray:
    """A real ``shape`` Gaussian field with the filter of length ``L`` as its spectrum.

    ``shape`` is ``(ny, nx)`` with positive entries and
    ``correlation_length_px`` a positive, finite length in pixels.  The
    field is contiguous and neither centred nor normalised; under
    :func:`repro.kernels.reference.oracles` it draws the same values from
    ``rng`` and returns the same bytes.
    """
    spectrum, n_cols = half_spectrum(shape, correlation_length_px, rng)
    return inverse(spectrum, n_cols, shape[1])
