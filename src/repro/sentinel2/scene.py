"""Render a ground-truth ice scene into Sentinel-2-like multispectral imagery.

Reflectance model (top-of-atmosphere, unitless 0..1):

=============  =====  =====  =====  =====
surface        B2     B3     B4     B8
=============  =====  =====  =====  =====
thick/snow ice 0.82   0.80   0.78   0.72
thin ice       0.38   0.36   0.32   0.22
open water     0.08   0.06   0.04   0.02
=============  =====  =====  =====  =====

These follow the qualitative spectra used by the authors' color-based
segmentation: snow-covered ice is bright and spectrally flat, thin ice (grey
ice / nilas) is intermediate with a falling NIR, and open water is dark in
all bands.  Per-pixel texture noise and a freeboard-dependent brightening of
ridges are added, then thin clouds and shadows from
:mod:`repro.sentinel2.cloud` modulate the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro.geodesy.grid import GridDefinition
from repro.sentinel2.cloud import CloudConfig, apply_clouds_and_shadows, synthesize_cloud_fields
from repro.surface.scene import IceScene
from repro.utils.random import default_rng

#: Band names rendered by the simulator, in storage order.
BAND_NAMES = ("B2", "B3", "B4", "B8")

#: Mean TOA reflectance per class per band (rows follow class ids 0, 1, 2).
CLASS_REFLECTANCE = np.array(
    [
        [0.82, 0.80, 0.78, 0.72],  # thick / snow-covered ice
        [0.38, 0.36, 0.32, 0.22],  # thin ice
        [0.08, 0.06, 0.04, 0.02],  # open water
    ]
)

#: Image rows processed together by :func:`render_scene` and
#: :func:`~repro.sentinel2.segmentation.segment_image`: 32 rows of an
#: 800-pixel, 4-band float64 stack are 800 KB, which stays in L2 cache.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class S2SceneConfig:
    """Rendering parameters for a simulated Sentinel-2 acquisition."""

    pixel_size_m: float = 10.0
    texture_noise: float = 0.02
    ridge_brightening: float = 0.05
    cloud: CloudConfig = field(default_factory=CloudConfig)
    seed: int = 11

    def __post_init__(self) -> None:
        if self.pixel_size_m <= 0:
            raise ValueError("pixel_size_m must be positive")
        if self.texture_noise < 0 or self.ridge_brightening < 0:
            raise ValueError("noise terms must be non-negative")


@dataclass
class S2Image:
    """A simulated Sentinel-2 acquisition over an ice scene.

    Attributes
    ----------
    bands:
        Array of shape ``(4, ny, nx)`` holding B2, B3, B4, B8 reflectance.
    origin_x_m, origin_y_m, pixel_size_m:
        Georeferencing in Antarctic polar stereographic metres.  The origin
        is the *lower-left* corner of the image.
    acquisition_time:
        UTC acquisition time (used for the IS2/S2 temporal pairing).
    cloud_optical_depth, shadow_mask:
        Per-pixel thin-cloud optical depth and boolean shadow mask — the
        ground truth that the segmentation's cloud/shadow filter is judged
        against.
    truth_class_map:
        The underlying surface class of every pixel (for evaluation only).
    """

    bands: np.ndarray
    origin_x_m: float
    origin_y_m: float
    pixel_size_m: float
    acquisition_time: datetime
    cloud_optical_depth: np.ndarray
    shadow_mask: np.ndarray
    truth_class_map: np.ndarray

    def __post_init__(self) -> None:
        bands = np.asarray(self.bands, dtype=float)
        if bands.ndim != 3 or bands.shape[0] != len(BAND_NAMES):
            raise ValueError(f"bands must have shape (4, ny, nx), got {bands.shape}")
        self.bands = bands
        if self.acquisition_time.tzinfo is None:
            self.acquisition_time = self.acquisition_time.replace(tzinfo=timezone.utc)

    @property
    def shape(self) -> tuple[int, int]:
        """(ny, nx) of the image grid."""
        return self.bands.shape[1], self.bands.shape[2]

    def band(self, name: str) -> np.ndarray:
        """Reflectance of a single band by name (e.g. ``"B4"``)."""
        try:
            idx = BAND_NAMES.index(name)
        except ValueError:
            raise KeyError(f"unknown band {name!r}; available: {BAND_NAMES}") from None
        return self.bands[idx]

    @property
    def grid(self) -> GridDefinition:
        """The image's pixel grid as the shared :class:`GridDefinition`.

        All projected-point -> pixel arithmetic (the IS2/S2 overlay, the
        parallel auto-labeling job, the Level-3 binning) goes through this
        one indexing helper.
        """
        ny, nx = self.shape
        return GridDefinition(
            x_min_m=self.origin_x_m,
            y_min_m=self.origin_y_m,
            cell_size_m=self.pixel_size_m,
            nx=nx,
            ny=ny,
        )

    def pixel_index(self, x_m: np.ndarray, y_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of projected points, clipped to the grid."""
        return self.grid.cell_index(x_m, y_m, clip=True)

    def contains(self, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
        """Boolean mask of projected points inside the image footprint."""
        return self.grid.contains(x_m, y_m)

    def shifted(self, dx_m: float, dy_m: float) -> "S2Image":
        """Return a copy whose georeferencing is translated by (dx, dy) metres.

        This is how the paper's drift correction is applied: the image is
        shifted to align with the IS2 track (Table I), which only changes the
        origin, not the pixel data.
        """
        return S2Image(
            bands=self.bands,
            origin_x_m=self.origin_x_m + dx_m,
            origin_y_m=self.origin_y_m + dy_m,
            pixel_size_m=self.pixel_size_m,
            acquisition_time=self.acquisition_time,
            cloud_optical_depth=self.cloud_optical_depth,
            shadow_mask=self.shadow_mask,
            truth_class_map=self.truth_class_map,
        )


def render_scene(
    scene: IceScene,
    config: S2SceneConfig | None = None,
    acquisition_time: datetime | None = None,
    drift_offset_m: tuple[float, float] = (0.0, 0.0),
    rng: np.random.Generator | int | None = None,
) -> S2Image:
    """Render an :class:`IceScene` into a simulated Sentinel-2 image.

    Parameters
    ----------
    drift_offset_m:
        Apparent (dx, dy) displacement of the ice field at the S2 acquisition
        time relative to the IS2 overpass.  A non-zero drift shifts the image
        georeferencing so the rendered ice is *misaligned* with the IS2
        track — exactly the misregistration the paper's Table I corrects by
        shifting the S2 images back.
    """
    cfg = config if config is not None else S2SceneConfig()
    rng = default_rng(rng if rng is not None else cfg.seed)
    if acquisition_time is None:
        acquisition_time = datetime(2019, 11, 4, 19, 45, 29, tzinfo=timezone.utc)

    class_map = scene.class_map
    ny, nx = class_map.shape

    # Texture noise, ridge brightening and the cloud fields are drawn over
    # the whole image, in this order, so the random stream does not depend
    # on the block size.
    noise = rng.standard_normal((ny, nx))
    noise *= cfg.texture_noise
    ridge = None
    if cfg.ridge_brightening > 0:
        ridge = np.clip(scene.freeboard_map - 0.6, 0.0, None)
        ridge *= cfg.ridge_brightening
    optical_depth, shadow_mask = synthesize_cloud_fields((ny, nx), cfg.cloud, rng)

    # Every pixel's bands depend only on that pixel, so the stack is filled
    # one cache-sized row block at a time: class lookup, noise, ridges,
    # clouds and shadows, clip.
    bands = np.empty((len(BAND_NAMES), ny, nx))
    for start in range(0, ny, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = np.take(CLASS_REFLECTANCE.T, class_map[rows], axis=1)
        block += noise[rows]
        if ridge is not None:
            block += ridge[rows]
        block = apply_clouds_and_shadows(block, optical_depth[rows], shadow_mask[rows], cfg.cloud)
        np.clip(block, 0.0, 1.0, out=bands[:, rows])

    scene_cfg = scene.config
    return S2Image(
        bands=bands,
        origin_x_m=scene_cfg.origin_x_m + drift_offset_m[0],
        origin_y_m=scene_cfg.origin_y_m + drift_offset_m[1],
        pixel_size_m=scene_cfg.pixel_size_m,
        acquisition_time=acquisition_time,
        cloud_optical_depth=optical_depth,
        shadow_mask=shadow_mask,
        truth_class_map=class_map.copy(),
    )
