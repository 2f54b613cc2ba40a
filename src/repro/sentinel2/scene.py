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

:func:`render_scene` draws those per-pixel terms over the whole image and
returns an image that renders its bands where they are read: the whole
stack on first read of :attr:`S2Image.bands`, or one block of pixels at a
time through :meth:`S2Image.block_bands`, which the corridor segmentation
uses to render only the tiles the tracks can read.
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

#: Side of the square tiles that a corridor segmentation
#: (:func:`~repro.sentinel2.segmentation.segment_image` with ``tiles=``)
#: renders and segments.  A row of tiles is one row block.
TILE_PX = _BLOCK_ROWS


def tile_grid_shape(shape: tuple[int, int]) -> tuple[int, int]:
    """(rows, columns) of the :data:`TILE_PX` tiles covering an image grid.

    Tiles start at pixel (0, 0); the last row and column of tiles are cut
    short when the image size is not a multiple of the tile size.
    """
    ny, nx = shape
    return -(-ny // TILE_PX), -(-nx // TILE_PX)


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


@dataclass(frozen=True)
class RenderLayers:
    """The per-pixel terms :func:`render_scene` adds to the class reflectance.

    Together with an image's class map and cloud fields they fix every
    pixel's bands, so a rendered image keeps them instead of its bands until
    the bands are read (:attr:`S2Image.bands`) or a block of them is
    (:meth:`S2Image.block_bands`).
    """

    #: Texture noise, already scaled by ``texture_noise``.
    noise: np.ndarray
    #: Ridge brightening, already scaled, or ``None`` when it is off.
    ridge: np.ndarray | None
    cloud: CloudConfig


@dataclass
class S2Image:
    """A simulated Sentinel-2 acquisition over an ice scene.

    Attributes
    ----------
    bands:
        Array of shape ``(4, ny, nx)`` holding B2, B3, B4, B8 reflectance.
        An image from :func:`render_scene` passes ``bands=None`` with its
        ``layers`` and fills the stack on first read, one row block at a
        time, with the bytes a whole-image render gives.
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
        The underlying surface class of every pixel: ground truth for
        evaluation, and the class term of bands rendered from ``layers``.
    layers:
        The render terms that fill ``bands`` when it is ``None``.
    """

    bands: np.ndarray
    origin_x_m: float
    origin_y_m: float
    pixel_size_m: float
    acquisition_time: datetime
    cloud_optical_depth: np.ndarray
    shadow_mask: np.ndarray
    truth_class_map: np.ndarray
    layers: RenderLayers | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._bands is None:
            if self.layers is None:
                raise ValueError("an S2Image needs its bands or the layers that render them")
        else:
            bands = np.asarray(self._bands, dtype=float)
            if bands.ndim != 3 or bands.shape[0] != len(BAND_NAMES):
                raise ValueError(f"bands must have shape (4, ny, nx), got {bands.shape}")
            self._bands = bands
        if self.acquisition_time.tzinfo is None:
            self.acquisition_time = self.acquisition_time.replace(tzinfo=timezone.utc)

    @property
    def shape(self) -> tuple[int, int]:
        """(ny, nx) of the image grid."""
        if self._bands is None:
            return self.truth_class_map.shape
        return self._bands.shape[1], self._bands.shape[2]

    def block_bands(self, rows: slice, cols: np.ndarray | None = None) -> np.ndarray:
        """Bands of one block of pixels: ``rows`` x all columns, or x ``cols``.

        Returns a float array of shape ``(4, n_rows, n_cols)``, to be read
        only: it may be a view of the stored bands.  The stored bands are
        read when the image has them; otherwise the block is rendered from
        :attr:`layers` with the bytes the same pixels have in a whole-image
        read, because every pixel depends only on its own layer values.
        """
        if self._bands is None:
            return self._render_block(rows, cols)
        block = self._bands[:, rows]
        if cols is not None:
            block = np.take(block, cols, axis=2)
        return np.asarray(block, dtype=float)

    def _render_block(
        self, rows: slice, cols: np.ndarray | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Render one block from the layers: class lookup, noise, ridges,
        clouds and shadows, clip.  Column gathers copy, so every term is a
        contiguous array, as in a whole-row block."""

        def take(plane: np.ndarray) -> np.ndarray:
            block = plane[rows]
            return block if cols is None else np.take(block, cols, axis=1)

        layers = self.layers
        block = np.take(CLASS_REFLECTANCE.T, take(self.truth_class_map), axis=1)
        block += take(layers.noise)
        if layers.ridge is not None:
            block += take(layers.ridge)
        block = apply_clouds_and_shadows(
            block, take(self.cloud_optical_depth), take(self.shadow_mask), layers.cloud
        )
        return np.clip(block, 0.0, 1.0, out=block if out is None else out)

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
            bands=self._bands,
            origin_x_m=self.origin_x_m + dx_m,
            origin_y_m=self.origin_y_m + dy_m,
            pixel_size_m=self.pixel_size_m,
            acquisition_time=self.acquisition_time,
            cloud_optical_depth=self.cloud_optical_depth,
            shadow_mask=self.shadow_mask,
            truth_class_map=self.truth_class_map,
            layers=self.layers,
        )


def _read_bands(image: S2Image) -> np.ndarray:
    if image._bands is None:
        ny, nx = image.shape
        bands = np.empty((len(BAND_NAMES), ny, nx))
        for start in range(0, ny, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            image._render_block(rows, None, out=bands[:, rows])
        image._bands = bands
    return image._bands


def _write_bands(image: S2Image, bands: np.ndarray | None) -> None:
    image._bands = bands


# A property set after the dataclass is built keeps ``bands`` a required
# field of ``__init__`` (and of ``dataclasses.replace``).
S2Image.bands = property(_read_bands, _write_bands, doc="The ``(4, ny, nx)`` reflectance stack.")


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

    # Every pixel's bands depend only on that pixel and these layers, so the
    # image keeps the layers and renders bands where they are read: the
    # whole stack in row blocks on first read of ``bands``, or the tiles a
    # corridor segmentation asks for.
    scene_cfg = scene.config
    return S2Image(
        bands=None,
        origin_x_m=scene_cfg.origin_x_m + drift_offset_m[0],
        origin_y_m=scene_cfg.origin_y_m + drift_offset_m[1],
        pixel_size_m=scene_cfg.pixel_size_m,
        acquisition_time=acquisition_time,
        cloud_optical_depth=optical_depth,
        shadow_mask=shadow_mask,
        truth_class_map=class_map.copy(),
        layers=RenderLayers(noise=noise, ridge=ridge, cloud=cfg.cloud),
    )
