"""Random-field helpers used to synthesise sea-ice scenes.

The scene generator needs spatially correlated random fields (ice
concentration, freeboard texture, ridges, cloud optical depth).
:func:`gaussian_random_field` draws one with a tunable correlation length
``L`` straight in the Fourier domain (:mod:`repro.kernels.random_field`):
complex Gaussian coefficients on the half-spectrum block where the Gaussian
filter ``exp(-0.5 k² (2πL)²)`` does not underflow to zero, and one inverse
real FFT.  The larger ``L``, the smaller that block, so smooth fields cost
little more than the inverse transform along ``x``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import random_field
from repro.utils.random import default_rng


def gaussian_random_field(
    shape: tuple[int, int],
    correlation_length_px: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Generate a zero-mean, unit-variance correlated Gaussian random field.

    Parameters
    ----------
    shape:
        ``(ny, nx)`` grid shape.
    correlation_length_px:
        Approximate correlation length in pixels.  Larger values give
        smoother fields.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Array of shape ``shape`` with approximately zero mean and unit
        variance.
    """
    if len(shape) != 2:
        raise ValueError("shape must be (ny, nx)")
    ny, nx = shape
    if ny <= 0 or nx <= 0:
        raise ValueError("shape entries must be positive")
    if not np.isfinite(correlation_length_px) or correlation_length_px <= 0:
        raise ValueError("correlation_length_px must be positive and finite")
    rng = default_rng(rng)

    field = random_field.spectral_field((ny, nx), correlation_length_px, rng)
    field -= field.mean()
    # The centred field's standard deviation in one pass, with no temporary.
    std = np.sqrt(np.einsum("ij,ij->", field, field) / field.size)
    if std < 1e-12:
        return np.zeros(shape)
    field /= std
    return field


def smooth_threshold_classes(
    field: np.ndarray, fractions: tuple[float, ...]
) -> np.ndarray:
    """Quantise a continuous field into classes with prescribed area fractions.

    ``fractions`` gives the target area fraction of each class, ordered from
    the *lowest* field values to the highest.  Class ``i`` occupies
    approximately ``fractions[i]`` of the grid.

    Returns an integer array with values ``0 .. len(fractions) - 1``.
    """
    field = np.asarray(field, dtype=float)
    fracs = np.asarray(fractions, dtype=float)
    if fracs.ndim != 1 or fracs.size == 0:
        raise ValueError("fractions must be a non-empty 1-D sequence")
    if np.any(fracs < 0):
        raise ValueError("fractions must be non-negative")
    total = fracs.sum()
    if total <= 0:
        raise ValueError("fractions must sum to a positive value")
    fracs = fracs / total

    cum = np.cumsum(fracs)[:-1]
    thresholds = np.quantile(field, cum) if cum.size else np.empty(0)
    classes = np.digitize(field, thresholds)
    return classes.astype(np.int8)


def add_linear_leads(
    class_map: np.ndarray,
    n_leads: int,
    lead_class: int,
    width_px: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Carve elongated open-water leads into a class map.

    Leads in sea ice are long, narrow cracks; the ATL07/ATL10 algorithms (and
    the paper's sea-surface stage) rely on crossing them to find local sea
    level.  This draws ``n_leads`` straight segments of the given pixel width
    and stamps them with ``lead_class``.

    Returns a modified copy of ``class_map``.
    """
    if n_leads < 0:
        raise ValueError("n_leads must be non-negative")
    if width_px < 1:
        raise ValueError("width_px must be >= 1")
    rng = default_rng(rng)
    out = np.array(class_map, copy=True)
    ny, nx = out.shape
    for _ in range(n_leads):
        x0, y0 = rng.uniform(0, nx), rng.uniform(0, ny)
        angle = rng.uniform(0, np.pi)
        length = rng.uniform(0.3, 1.0) * max(nx, ny)
        dx, dy = np.cos(angle), np.sin(angle)
        # Only pixels inside the lead's bounding box can be stamped: the box
        # spans half the length along each axis plus the full width, a
        # margin wider than the half-width the mask tests against.
        half_x = length / 2.0 * abs(dx) + width_px
        half_y = length / 2.0 * abs(dy) + width_px
        x_lo = max(int(np.floor(x0 - half_x)), 0)
        x_hi = min(int(np.ceil(x0 + half_x)) + 1, nx)
        y_lo = max(int(np.floor(y0 - half_y)), 0)
        y_hi = min(int(np.ceil(y0 + half_y)) + 1, ny)
        xx = np.arange(x_lo, x_hi)[None, :]
        yy = np.arange(y_lo, y_hi)[:, None]
        # Signed distance of every pixel from the lead's centre line and the
        # projection of the pixel along the line (to bound the lead length).
        dist = np.abs((xx - x0) * dy - (yy - y0) * dx)
        along = (xx - x0) * dx + (yy - y0) * dy
        mask = (dist <= width_px / 2.0) & (np.abs(along) <= length / 2.0)
        out[y_lo:y_hi, x_lo:x_hi][mask] = lead_class
    return out
