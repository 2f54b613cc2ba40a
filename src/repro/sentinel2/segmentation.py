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

import math
from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_THIN_ICE, CLASS_UNSEGMENTED
from repro.geodesy.grid import GridDefinition
from repro.sentinel2.scene import _BLOCK_ROWS, TILE_PX, S2Image, tile_grid_shape
from repro.utils.planes import fill_outside


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
    """Output of :func:`segment_image`.

    A corridor segmentation sets ``tiles``, the boolean
    :func:`~repro.sentinel2.scene.tile_grid_shape` mask of the tiles it
    computed.  The planes keep the image's full size; outside those tiles
    ``class_map`` holds :data:`~repro.config.CLASS_UNSEGMENTED` and both
    masks are ``False``, so the whole-image summaries refuse it.

    The pickled form is compact, while the unpickled object is the same as
    before: it stores ``tiles``, the plane shape, the ``class_map`` bytes of
    the marked tiles' pixels and the two masks over those pixels as packed
    bits (a corridor bundle is ~12 % of the three planes' bytes).  A
    whole-image result pickles as one with every tile marked and comes back
    with ``tiles=None``.  Results pickled as plain dataclasses still load.
    """

    class_map: np.ndarray
    cloud_mask: np.ndarray
    shadow_mask: np.ndarray
    tiles: np.ndarray | None = None

    def _require_whole_image(self, summary: str) -> None:
        if self.tiles is not None:
            raise ValueError(
                f"{summary} summarises the whole image, but this segmentation "
                "computed only the tiles of its corridor"
            )

    @property
    def cloud_fraction(self) -> float:
        self._require_whole_image("cloud_fraction")
        return float(self.cloud_mask.mean())

    @property
    def shadow_fraction(self) -> float:
        self._require_whole_image("shadow_fraction")
        return float(self.shadow_mask.mean())

    def class_fractions(self) -> dict[int, float]:
        self._require_whole_image("class_fractions")
        values, counts = np.unique(self.class_map, return_counts=True)
        total = float(self.class_map.size)
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    def __reduce__(self) -> tuple:
        shape = self.class_map.shape
        pixels = _tile_pixels(self.tiles, shape)
        return _rebuild_segmentation, (
            shape,
            self.tiles,
            self.class_map[pixels],
            np.packbits(self.cloud_mask[pixels]),
            np.packbits(self.shadow_mask[pixels]),
        )


def _tile_pixels(tiles: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """Boolean ``shape`` mask of the pixels of the marked tiles (all: ``None``).

    Its row-major order is the order in which :func:`_segment_tiles` gathers
    the pixels of a tile row.
    """
    if tiles is None:
        tiles = np.ones(tile_grid_shape(shape), dtype=bool)
    pixels = np.repeat(np.repeat(tiles, TILE_PX, axis=0), TILE_PX, axis=1)
    return pixels[: shape[0], : shape[1]]


def _rebuild_segmentation(
    shape: tuple[int, int],
    tiles: np.ndarray | None,
    classes: np.ndarray,
    cloud_bits: np.ndarray,
    shadow_bits: np.ndarray,
) -> SegmentationResult:
    """Unpickle a :class:`SegmentationResult` from its marked pixels."""
    pixels = _tile_pixels(tiles, shape)
    n = classes.size
    return SegmentationResult(
        class_map=fill_outside(pixels, classes, CLASS_UNSEGMENTED),
        cloud_mask=fill_outside(pixels, np.unpackbits(cloud_bits, count=n).view(bool), False),
        shadow_mask=fill_outside(pixels, np.unpackbits(shadow_bits, count=n).view(bool), False),
        tiles=tiles,
    )


def _brightness(bands: np.ndarray) -> np.ndarray:
    """Mean visible reflectance (B2, B3, B4) of float bands.

    ``(B2 + B3 + B4) / 3`` in this order is the sum and divide that
    ``bands[:3].mean(axis=0)`` runs, so the bytes are the same, without the
    reduction's set-up cost on every row block.
    """
    total = bands[0] + bands[1]
    total += bands[2]
    total /= 3.0
    return total


def _whiteness(bands: np.ndarray) -> np.ndarray:
    """Band-to-band spread of the visible channels (low = spectrally flat).

    Pairwise maxima and minima in band order, as ``max(axis=0)`` and
    ``min(axis=0)`` reduce them.
    """
    high = np.maximum(bands[0], bands[1])
    np.maximum(high, bands[2], out=high)
    low = np.minimum(bands[0], bands[1])
    np.minimum(low, bands[2], out=low)
    high -= low
    return high


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

    Both corrections run densely over the stack, with no boolean gather:
    ``np.where`` sets the transmittance to 1 outside ``cloud_mask`` and the
    shadow factor to 1 outside ``shadow_mask``.  ``(x - 0.0) / 1.0`` and
    ``x * 1.0`` are exact, so unmasked pixels keep their input bytes.  Each
    pixel depends only on its own values, so ``bands`` may be any block of
    an image's rows.  Returns a new array; ``bands`` is left unchanged.
    """
    bands = np.asarray(bands, dtype=float)
    if cloud_mask.any():
        # Transmittance estimate: cloudier pixels sit closer to r_cloud.
        t = np.clip(
            (config.cloud_reflectance - _brightness(bands))
            / max(config.cloud_reflectance - config.thin_ice_brightness, 1e-6),
            0.2,
            1.0,
        )
        t = np.where(cloud_mask, t, 1.0)
        out = bands - (1.0 - t) * config.cloud_reflectance
        out /= t
    else:
        out = bands.copy()
    if shadow_mask.any():
        out *= np.where(shadow_mask, 1.0 / (1.0 - config.shadow_recovery), 1.0)
    return np.clip(out, 0.0, 1.0, out=out)


def _segment_block(
    bands: np.ndarray, cfg: SegmentationConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classes, cloud mask and shadow mask of one ``(4, rows, cols)`` block."""
    cloud = detect_thin_clouds(bands, cfg)
    shadow = detect_shadows(bands, cfg) & ~cloud
    compensated = compensate(bands, cloud, shadow, cfg)
    bright = _brightness(compensated)
    green = compensated[1]
    nir = compensated[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        ndwi = np.where(green + nir > 1e-6, (green - nir) / np.maximum(green + nir, 1e-6), 0.0)

    classes = np.full(bright.shape, CLASS_THIN_ICE, dtype=np.int8)
    classes[bright >= cfg.thick_ice_brightness] = CLASS_THICK_ICE
    water = (bright < cfg.thin_ice_brightness) | (
        (bright < cfg.thick_ice_brightness * 0.6) & (ndwi > cfg.water_ndwi)
    )
    classes[water] = CLASS_OPEN_WATER
    return classes, cloud, shadow


def segment_image(
    image: S2Image,
    config: SegmentationConfig | None = None,
    tiles: np.ndarray | None = None,
) -> SegmentationResult:
    """Segment a simulated Sentinel-2 image into surface classes.

    Returns per-pixel classes plus the detected cloud/shadow masks so the
    auto-labeling stage can flag photons that fall under clouds (those labels
    are less trustworthy and are routed to the manual-correction step).

    ``tiles`` (a boolean :func:`~repro.sentinel2.scene.tile_grid_shape`
    mask, e.g. from :func:`corridor_tiles`) limits the work to the marked
    :data:`~repro.sentinel2.scene.TILE_PX` tiles: their bands are rendered
    (:meth:`~repro.sentinel2.scene.S2Image.block_bands`) and segmented, and
    every other pixel is left :data:`~repro.config.CLASS_UNSEGMENTED`.
    Each step is per pixel, so a computed tile holds the bytes the
    whole-image segmentation gives it.
    """
    cfg = config if config is not None else SegmentationConfig()
    if tiles is not None:
        return _segment_tiles(image, cfg, tiles)
    bands = np.asarray(image.bands, dtype=float)
    if bands.ndim != 3 or bands.shape[0] != 4:
        raise ValueError("image.bands must have shape (4, ny, nx)")

    # Every step is per pixel, so the image is segmented one cache-sized
    # row block at a time, straight into the full-size outputs.
    shape = bands.shape[1:]
    class_map = np.empty(shape, dtype=np.int8)
    cloud_mask = np.empty(shape, dtype=bool)
    shadow_mask = np.empty(shape, dtype=bool)
    for start in range(0, shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        class_map[rows], cloud_mask[rows], shadow_mask[rows] = _segment_block(
            bands[:, rows], cfg
        )
    return SegmentationResult(class_map=class_map, cloud_mask=cloud_mask, shadow_mask=shadow_mask)


def _segment_tiles(
    image: S2Image, cfg: SegmentationConfig, tiles: np.ndarray
) -> SegmentationResult:
    """The corridor path of :func:`segment_image`: one packed block per tile row.

    The marked tiles of a tile row sit side by side in one ``(4, rows,
    cols)`` block (their pixel columns gathered in order), which is
    rendered, segmented and scattered back into the full-size planes.
    """
    shape = image.shape
    tiles = np.array(tiles, dtype=bool)
    if tiles.shape != tile_grid_shape(shape):
        raise ValueError(
            f"tiles must have shape {tile_grid_shape(shape)} for a {shape} image, "
            f"got {tiles.shape}"
        )
    class_map = np.full(shape, CLASS_UNSEGMENTED, dtype=np.int8)
    cloud_mask = np.zeros(shape, dtype=bool)
    shadow_mask = np.zeros(shape, dtype=bool)
    for i in np.flatnonzero(tiles.any(axis=1)):
        rows = slice(i * TILE_PX, (i + 1) * TILE_PX)
        cols = np.flatnonzero(np.repeat(tiles[i], TILE_PX)[: shape[1]])
        classes, cloud, shadow = _segment_block(image.block_bands(rows, cols), cfg)
        class_map[rows, cols] = classes
        cloud_mask[rows, cols] = cloud
        shadow_mask[rows, cols] = shadow
    return SegmentationResult(
        class_map=class_map, cloud_mask=cloud_mask, shadow_mask=shadow_mask, tiles=tiles
    )


def corridor_tiles(
    grid: GridDefinition, x_m: np.ndarray, y_m: np.ndarray, reach_m: float
) -> np.ndarray:
    """Tiles that a lookup of any point shifted by at most ``reach_m`` reads.

    A lookup at ``(x - dx, y - dy)`` with ``|dx|, |dy| <= reach_m`` lands
    within ``ceil(reach_m / cell)`` pixels of the point's own pixel, plus
    one for the floor rounding of
    :meth:`~repro.geodesy.grid.GridDefinition.cell_index`; a clipped lookup
    lands on an edge pixel no farther away.  So the corridor is every
    point's tile grown by that reach rounded up to whole tiles.  Points with
    a non-finite coordinate are never looked up and add no tile.  Returns a
    boolean :func:`~repro.sentinel2.scene.tile_grid_shape` mask.
    """
    if not reach_m >= 0:
        raise ValueError(f"reach_m must be non-negative, got {reach_m!r}")
    x = np.asarray(x_m, dtype=float).ravel()
    y = np.asarray(y_m, dtype=float).ravel()
    finite = np.isfinite(x) & np.isfinite(y)
    seeds = np.zeros(tile_grid_shape(grid.shape), dtype=bool)
    row, col = grid.cell_index(x[finite], y[finite], clip=True)
    seeds[row // TILE_PX, col // TILE_PX] = True
    margin = -(-(math.ceil(reach_m / grid.cell_size_m) + 1) // TILE_PX)
    grown = seeds.copy()
    for d in range(1, margin + 1):
        grown[d:] |= seeds[:-d]
        grown[:-d] |= seeds[d:]
    corridor = grown.copy()
    for d in range(1, margin + 1):
        corridor[:, d:] |= grown[:, :-d]
        corridor[:, :-d] |= grown[:, d:]
    return corridor
