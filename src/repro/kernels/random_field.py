"""Gaussian spectral filtering of white noise: the scene random fields (reference + vectorized).

:func:`repro.surface.fields.gaussian_random_field` correlates white noise by
multiplying its 2-D spectrum with ``sqrt(exp(-0.5 k² (2πL)²))`` and
transforming back.  Both backends return the real part of that filtered
field, ``(ny, nx)``, with the same bytes.

The reference backend is ``fft2`` -> ``* sqrt(filter)`` -> ``ifft2`` ->
``.real``.  The vectorized backend exploits that the filter underflows to
exactly ``0.0`` wherever ``|k| > 6.14 / L`` (``exp`` of less than about
-745): for correlation lengths above ~12 px that is most rows and columns
of the spectrum (only 39 of 800 survive at L = 250 px).  It runs the same 1-D transforms in the same axis
order (the last axis first), and skips every transform whose input is all
zero or whose output the filter zeroes:

* forward: every row along axis 1, then only the surviving columns along
  axis 0;
* inverse: only the surviving rows along axis 1, then every column along
  axis 0.

The filter is evaluated only on the surviving rows x columns, with the same
elementwise expression.  A row survives when its ``kx = 0`` entry is
non-zero and a column when its ``ky = 0`` entry is, because those entries
hold each row's and column's largest filter value.  Every transform the
vectorized backend runs sees the reference's input line up to the sign of
its zeros, and adding a signed zero leaves a non-zero value unchanged, so
the outputs agree bit for bit (the equivalence tests compare bytes).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend


def _filter(kx: np.ndarray, ky: np.ndarray, correlation_length_px: float) -> np.ndarray:
    """Gaussian spectral filter ``exp(-(k * L)^2 / 2)`` with ``L`` in pixels."""
    k2 = kx**2 + ky**2
    return np.exp(-0.5 * k2 * (correlation_length_px * 2.0 * np.pi) ** 2)


def filtered_noise_reference(white: np.ndarray, correlation_length_px: float) -> np.ndarray:
    """Full 2-D transforms over the whole spectrum."""
    ny, nx = white.shape
    ky = np.fft.fftfreq(ny)[:, None]
    kx = np.fft.fftfreq(nx)[None, :]
    filt = _filter(kx, ky, correlation_length_px)
    spec = np.fft.fft2(white) * np.sqrt(filt)
    return np.real(np.fft.ifft2(spec))


def filtered_noise_vectorized(white: np.ndarray, correlation_length_px: float) -> np.ndarray:
    """The same transforms, restricted to the rows and columns the filter keeps."""
    ny, nx = white.shape
    ky = np.fft.fftfreq(ny)[:, None]
    kx = np.fft.fftfreq(nx)[None, :]
    rows = np.flatnonzero(_filter(kx[:, :1], ky, correlation_length_px)[:, 0])
    cols = np.flatnonzero(_filter(kx, ky[:1], correlation_length_px)[0])
    filt = _filter(kx[:, cols], ky[rows], correlation_length_px)

    # Forward: all rows, then the surviving columns; keep the surviving rows.
    spec = np.fft.fft(np.fft.fft(white, axis=1)[:, cols], axis=0)[rows]
    spec *= np.sqrt(filt)

    # Inverse: the surviving rows (every other row is all zero), then all
    # columns of the full spectrum.
    band = np.zeros((rows.size, nx), dtype=complex)
    band[:, cols] = spec
    full = np.zeros((ny, nx), dtype=complex)
    full[rows] = np.fft.ifft(band, axis=1)
    return np.real(np.fft.ifft(full, axis=0))


def filtered_noise(white: np.ndarray, correlation_length_px: float) -> np.ndarray:
    """Real part of ``white`` filtered by the Gaussian spectral filter of length ``L``.

    ``white`` is a ``(ny, nx)`` float array and ``correlation_length_px`` a
    positive, finite length in pixels; both backends return the same bytes.
    """
    if get_backend() == "reference":
        return filtered_noise_reference(white, correlation_length_px)
    return filtered_noise_vectorized(white, correlation_length_px)
