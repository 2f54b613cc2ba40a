"""Color-based Sentinel-2 sea-ice segmentation with thin-cloud/shadow filtering.

This reimplements the behaviour of the authors' prior work (their reference
[5], "Toward polar sea-ice classification using color-based segmentation and
auto-labeling of Sentinel-2 imagery"): pixels are classified into thick ice,
thin ice and open water from their visible/NIR reflectance, after first
detecting and compensating thin clouds and cloud shadows so they do not
masquerade as ice (bright) or water (dark).

Algorithm
---------
1. *Thin-cloud detection.*  Thin clouds raise brightness while flattening the
   spectrum and, crucially, raising the NIR reflectance of dark surfaces.  A
   pixel is flagged cloudy when its "whiteness" (low band-to-band spread) and
   brightness both exceed thresholds but its brightness is not high enough to
   be snow-covered ice.
2. *Shadow detection.*  Shadows are dark in every band but, unlike water,
   keep a high NIR/blue ratio relative to their brightness.
3. *Compensation.*  Cloudy pixels are darkened back toward their estimated
   surface signal by inverting the thin-cloud mixing model with a local
   optical-depth estimate; shadowed pixels are brightened by the inverse of
   the shadow factor.
4. *Color classification.*  The compensated brightness (mean of B2, B3, B4)
   is thresholded into open water / thin ice / thick ice, with the NDWI-like
   (B3 - B8)/(B3 + B8) index separating water from thin ice near the
   boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_THIN_ICE
from repro.sentinel2.scene import S2Image


@dataclass(frozen=True)
class SegmentationConfig:
    """Thresholds of the color-based segmentation."""

    thick_ice_brightness: float = 0.58
    thin_ice_brightness: float = 0.18
    water_ndwi: float = 0.35
    cloud_brightness_min: float = 0.30
    cloud_brightness_max: float = 0.75
    cloud_whiteness_max: float = 0.08
    cloud_nir_min: float = 0.25
    shadow_brightness_max: float = 0.20
    shadow_nir_ratio_min: float = 0.45
    shadow_recovery: float = 0.45
    cloud_reflectance: float = 0.85

    def __post_init__(self) -> None:
        if not self.thin_ice_brightness < self.thick_ice_brightness:
            raise ValueError("thin_ice_brightness must be below thick_ice_brightness")
        if not 0 <= self.shadow_recovery < 1:
            raise ValueError("shadow_recovery must be in [0, 1)")


@dataclass
class SegmentationResult:
    """Output of :func:`segment_image`."""

    class_map: np.ndarray
    cloud_mask: np.ndarray
    shadow_mask: np.ndarray
    compensated_brightness: np.ndarray

    @property
    def cloud_fraction(self) -> float:
        return float(self.cloud_mask.mean())

    @property
    def shadow_fraction(self) -> float:
        return float(self.shadow_mask.mean())

    def class_fractions(self) -> dict[int, float]:
        values, counts = np.unique(self.class_map, return_counts=True)
        total = float(self.class_map.size)
        return {int(v): float(c) / total for v, c in zip(values, counts)}


def _brightness(bands: np.ndarray) -> np.ndarray:
    """Mean visible reflectance (B2, B3, B4)."""
    return bands[:3].mean(axis=0)


def _whiteness(bands: np.ndarray) -> np.ndarray:
    """Band-to-band spread of the visible channels (low = spectrally flat)."""
    vis = bands[:3]
    return vis.max(axis=0) - vis.min(axis=0)


def detect_thin_clouds(bands: np.ndarray, config: SegmentationConfig) -> np.ndarray:
    """Boolean mask of thin-cloud contaminated pixels."""
    brightness = _brightness(bands)
    whiteness = _whiteness(bands)
    nir = bands[3]
    return (
        (brightness >= config.cloud_brightness_min)
        & (brightness <= config.cloud_brightness_max)
        & (whiteness <= config.cloud_whiteness_max)
        & (nir >= config.cloud_nir_min)
    )


def detect_shadows(bands: np.ndarray, config: SegmentationConfig) -> np.ndarray:
    """Boolean mask of cloud-shadow pixels.

    Shadows are dark overall but preserve the spectral shape of the shadowed
    surface, so the NIR-to-brightness ratio stays higher than for open water
    (which is nearly black in the NIR).
    """
    brightness = _brightness(bands)
    nir = bands[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        nir_ratio = np.where(brightness > 1e-6, nir / np.maximum(brightness, 1e-6), 0.0)
    return (brightness <= config.shadow_brightness_max) & (
        nir_ratio >= config.shadow_nir_ratio_min
    )


def compensate(
    bands: np.ndarray,
    cloud_mask: np.ndarray,
    shadow_mask: np.ndarray,
    config: SegmentationConfig,
) -> np.ndarray:
    """Remove thin-cloud brightening and shadow darkening from the bands.

    For cloudy pixels the thin-cloud mixing model
    ``r_obs = t * r_surf + (1 - t) * r_cloud`` is inverted with a
    transmittance estimated from how far the pixel's whiteness-weighted
    brightness sits between the surface and cloud reflectance.  For shadowed
    pixels the darkening is undone multiplicatively.

    Works on one float64 copy of ``bands``, touching only the masked pixels:
    the inversion runs on ``bands[:, cloud_mask]``, the shadow factor
    multiplies ``out[:, shadow_mask]`` in place, and the clip writes back
    into ``out``.  An unmasked pixel would have gone through
    ``(x - 0.0) / 1.0``, which is exact, so its bytes are those of the input.
    """
    out = np.array(bands, dtype=float)
    if cloud_mask.any():
        cloudy = out[:, cloud_mask]
        brightness = _brightness(cloudy)
        # Transmittance estimate: cloudier pixels sit closer to r_cloud.
        t = np.clip(
            (config.cloud_reflectance - brightness)
            / max(config.cloud_reflectance - config.thin_ice_brightness, 1e-6),
            0.2,
            1.0,
        )
        out[:, cloud_mask] = (cloudy - (1.0 - t) * config.cloud_reflectance) / t
    if shadow_mask.any():
        out[:, shadow_mask] *= 1.0 / (1.0 - config.shadow_recovery)
    return np.clip(out, 0.0, 1.0, out=out)


def segment_image(
    image: S2Image, config: SegmentationConfig | None = None
) -> SegmentationResult:
    """Segment a simulated Sentinel-2 image into surface classes.

    Returns per-pixel classes plus the detected cloud/shadow masks so the
    auto-labeling stage can flag photons that fall under clouds (those labels
    are less trustworthy and are routed to the manual-correction step).
    """
    cfg = config if config is not None else SegmentationConfig()
    bands = np.asarray(image.bands, dtype=float)
    if bands.ndim != 3 or bands.shape[0] != 4:
        raise ValueError("image.bands must have shape (4, ny, nx)")

    cloud_mask = detect_thin_clouds(bands, cfg)
    shadow_mask = detect_shadows(bands, cfg) & ~cloud_mask
    compensated = compensate(bands, cloud_mask, shadow_mask, cfg)

    brightness = _brightness(compensated)
    green = compensated[1]
    nir = compensated[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        ndwi = np.where(green + nir > 1e-6, (green - nir) / np.maximum(green + nir, 1e-6), 0.0)

    class_map = np.full(brightness.shape, CLASS_THIN_ICE, dtype=np.int8)
    class_map[brightness >= cfg.thick_ice_brightness] = CLASS_THICK_ICE
    water = (brightness < cfg.thin_ice_brightness) | (
        (brightness < cfg.thick_ice_brightness * 0.6) & (ndwi > cfg.water_ndwi)
    )
    class_map[water] = CLASS_OPEN_WATER

    return SegmentationResult(
        class_map=class_map,
        cloud_mask=cloud_mask,
        shadow_mask=shadow_mask,
        compensated_brightness=brightness,
    )
