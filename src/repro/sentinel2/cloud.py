"""Thin cloud and shadow synthesis for simulated Sentinel-2 scenes.

The authors' segmentation method (their reference [5]) is specifically a
*thin-cloud and shadow filtered* color-based segmentation, and the paper
reports that remaining thick cloud and shadow cover causes mislabeled IS2
photons that require manual correction.  To exercise both behaviours the
simulator injects:

* a smooth thin-cloud optical-depth field that brightens and flattens the
  spectra underneath (partially transparent), and
* compact cloud shadows displaced from the thickest cloud cores that darken
  the surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.surface.fields import gaussian_random_field
from repro.utils.random import default_rng


@dataclass(frozen=True)
class CloudConfig:
    """Parameters controlling the synthesised cloud and shadow fields."""

    thin_cloud_fraction: float = 0.25
    max_optical_depth: float = 0.8
    cloud_correlation_px: float = 120.0
    cloud_reflectance: float = 0.85
    shadow_fraction: float = 0.04
    shadow_darkening: float = 0.45
    shadow_offset_px: tuple[int, int] = (25, 15)

    def __post_init__(self) -> None:
        if not 0.0 <= self.thin_cloud_fraction <= 1.0:
            raise ValueError("thin_cloud_fraction must be in [0, 1]")
        if not 0.0 <= self.shadow_fraction <= 1.0:
            raise ValueError("shadow_fraction must be in [0, 1]")
        if self.max_optical_depth < 0:
            raise ValueError("max_optical_depth must be non-negative")
        if not 0.0 <= self.shadow_darkening <= 1.0:
            raise ValueError("shadow_darkening must be in [0, 1]")


def synthesize_cloud_fields(
    shape: tuple[int, int],
    config: CloudConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate (optical_depth, shadow_mask) fields for an image grid.

    Optical depth is zero outside clouds and rises smoothly to
    ``max_optical_depth`` in cloud cores covering ``thin_cloud_fraction`` of
    the grid.  Shadows are the densest cores shifted by ``shadow_offset_px``
    (sun-geometry displacement) covering about ``shadow_fraction`` of pixels.
    """
    cfg = config if config is not None else CloudConfig()
    rng = default_rng(rng)
    ny, nx = shape
    if ny <= 0 or nx <= 0:
        raise ValueError("shape must be positive")

    if cfg.thin_cloud_fraction == 0.0:
        return np.zeros(shape), np.zeros(shape, dtype=bool)

    corr = min(cfg.cloud_correlation_px, max(ny, nx) / 2.0)
    field = gaussian_random_field(shape, max(corr, 1.0), rng)
    # One partition of the field serves both thresholds.
    threshold, core_threshold = np.quantile(
        field, [1.0 - cfg.thin_cloud_fraction, 1.0 - cfg.shadow_fraction]
    )
    excess = np.clip(field - threshold, 0.0, None)
    if excess.max() > 0:
        optical_depth = cfg.max_optical_depth * excess / excess.max()
    else:
        optical_depth = np.zeros(shape)

    # Shadows: densest cloud cores displaced by the sun-geometry offset.
    shadow_mask = np.zeros(shape, dtype=bool)
    if cfg.shadow_fraction > 0:
        cores = field > core_threshold
        dy, dx = cfg.shadow_offset_px
        shadow_mask = np.roll(np.roll(cores, dy, axis=0), dx, axis=1)
    return optical_depth, shadow_mask


def apply_clouds_and_shadows(
    reflectance: np.ndarray,
    optical_depth: np.ndarray,
    shadow_mask: np.ndarray,
    config: CloudConfig | None = None,
) -> np.ndarray:
    """Blend cloud brightening and shadow darkening into a reflectance stack.

    ``reflectance`` has shape ``(n_bands, ny, nx)``.  A thin cloud of
    transmittance ``t = exp(-tau)`` mixes the surface signal with the cloud's
    own reflectance: ``r' = t * r + (1 - t) * r_cloud``.  Shadowed pixels are
    multiplied by ``1 - shadow_darkening``.  Every pixel is computed from
    its own values only, so the stack may be the whole image or any block of
    its rows (with the matching rows of the cloud fields).  Returns a new
    array; the input stack is left unchanged.
    """
    cfg = config if config is not None else CloudConfig()
    reflect = np.asarray(reflectance, dtype=float)
    if reflect.ndim != 3:
        raise ValueError("reflectance must have shape (n_bands, ny, nx)")
    tau = np.asarray(optical_depth, dtype=float)
    shadow = np.asarray(shadow_mask, dtype=bool)
    if tau.shape != reflect.shape[1:] or shadow.shape != reflect.shape[1:]:
        raise ValueError("cloud fields must match the image grid shape")

    transmittance = np.exp(-tau)
    out = transmittance * reflect
    out += (1.0 - transmittance) * cfg.cloud_reflectance
    np.multiply(out, 1.0 - cfg.shadow_darkening, out=out, where=shadow)
    return out
