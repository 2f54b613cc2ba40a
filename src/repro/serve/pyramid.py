"""Tile pyramids: power-of-two overview levels over a Level-3 grid.

A :class:`TilePyramid` is the serving-side form of a
:class:`~repro.l3.product.Level3Grid`: the base grid plus a stack of
overview levels, each one a 2x2 reduction of the level below built by the
:mod:`repro.kernels.pyramid` kernels — count-weighted means for the value
layers (freeboard/thickness layers weight by ``n_freeboard_segments``,
everything else by the configured weight variable) and area-mean coverage
fractions.  Levels are built until the whole grid fits in a single
``tile_size`` x ``tile_size`` tile (or the configured level cap).

Tiles are fixed-size square windows of one level, addressed by
``(zoom, tile_row, tile_col)`` with zoom 0 the base resolution; edge tiles
are NaN-padded to full size so every served tile has the same shape.  The
pure geometry helpers (:func:`level_shape`, :func:`n_levels_for`,
:func:`tile_grid`, :func:`tiles_for_bbox`) are shared with the query
engine, which must resolve a request to tile addresses *before* deciding
whether anything has to be decoded at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_SERVE, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.kernels import pyramid as kpyramid
from repro.l3.product import Level3Grid

#: Value layers whose natural reduction weight is the freeboard-segment
#: count rather than the total segment count.
_FREEBOARD_WEIGHTED_PREFIXES = ("freeboard_", "thickness_")


# ---------------------------------------------------------------------------
# Pure pyramid geometry (shared with the query engine)
# ---------------------------------------------------------------------------


def level_shape(base_shape: tuple[int, int], zoom: int) -> tuple[int, int]:
    """(ny, nx) of overview level ``zoom`` (0 = base), ceil-halving per level."""
    if zoom < 0:
        raise ValueError("zoom must be >= 0")
    ny, nx = int(base_shape[0]), int(base_shape[1])
    for _ in range(zoom):
        ny = (ny + 1) // 2
        nx = (nx + 1) // 2
    return ny, nx


def n_levels_for(
    base_shape: tuple[int, int], tile_size: int, max_levels: int | None = None
) -> int:
    """Number of pyramid levels (incl. the base) for a grid and tile size.

    Levels are added until the coarsest fits in one tile or is a single
    cell; ``max_levels`` caps the number of overview levels above the base.
    Deterministic in the inputs, so the query engine can enumerate a
    product's levels from its catalog entry without decoding it.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    n = 1
    ny, nx = int(base_shape[0]), int(base_shape[1])
    while max(ny, nx) > tile_size and (ny, nx) != (1, 1):
        if max_levels is not None and n > max_levels:
            break
        ny = (ny + 1) // 2
        nx = (nx + 1) // 2
        n += 1
    return n


def tile_grid(shape: tuple[int, int], tile_size: int) -> tuple[int, int]:
    """(tile_rows, tile_cols) covering a level of the given shape."""
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    ny, nx = shape
    return (ny + tile_size - 1) // tile_size, (nx + tile_size - 1) // tile_size


def tiles_for_bbox(
    bbox: Sequence[float],
    origin: tuple[float, float],
    base_cell_size_m: float,
    base_shape: tuple[int, int],
    zoom: int,
    tile_size: int,
) -> list[tuple[int, int]]:
    """Tile (row, col) addresses of one level intersecting a projected bbox.

    ``bbox`` is ``(x_min, y_min, x_max, y_max)`` in projected metres; the
    result is row-major ordered and clamped to the level's tile grid.  An
    empty list means the bbox misses the grid footprint entirely.
    """
    x_min, y_min, x_max, y_max = (float(v) for v in bbox)
    if not all(math.isfinite(v) for v in (x_min, y_min, x_max, y_max)):
        raise ValueError(f"bbox must be finite, got {tuple(bbox)!r}")
    if x_max <= x_min or y_max <= y_min:
        raise ValueError(f"bbox must have positive width and height, got {tuple(bbox)!r}")
    shape = level_shape(base_shape, zoom)
    rows, cols = tile_grid(shape, tile_size)
    span = base_cell_size_m * (2**zoom) * tile_size  # metres per tile side
    ox, oy = origin
    col_lo = int(math.floor((x_min - ox) / span))
    col_hi = int(math.ceil((x_max - ox) / span))  # exclusive
    row_lo = int(math.floor((y_min - oy) / span))
    row_hi = int(math.ceil((y_max - oy) / span))
    col_lo, col_hi = max(col_lo, 0), min(col_hi, cols)
    row_lo, row_hi = max(row_lo, 0), min(row_hi, rows)
    return [
        (row, col) for row in range(row_lo, row_hi) for col in range(col_lo, col_hi)
    ]


def tiles_for_cells(
    cells: np.ndarray | Sequence[int],
    base_shape: tuple[int, int],
    zoom: int,
    tile_size: int,
) -> list[tuple[int, int]]:
    """Tile (row, col) addresses of one level touched by base-grid cells.

    ``cells`` are flat row-major indices into the *base* grid — e.g. the
    dirty set reported by :meth:`repro.l3.merge.MosaicAccumulator.add`.
    Under ceil-halving, base cell ``(r, c)`` lands in level-``zoom`` cell
    ``(r >> zoom, c >> zoom)``, hence in tile
    ``(r >> zoom // tile_size, c >> zoom // tile_size)``.  The result is
    row-major sorted and deduplicated; an empty input returns no tiles.
    This is how the ingest tier turns dirty cells into the exact set of
    pyramid tiles to rebuild (and cache entries to invalidate).
    """
    flat = np.asarray(cells, dtype=np.int64).ravel()
    if flat.size == 0:
        return []
    ny, nx = int(base_shape[0]), int(base_shape[1])
    if flat.min() < 0 or flat.max() >= ny * nx:
        raise ValueError(
            f"cell indices must lie in [0, {ny * nx}) for base shape {base_shape}"
        )
    shape = level_shape(base_shape, zoom)  # also validates zoom >= 0
    _, tile_cols = tile_grid(shape, tile_size)
    level_rows = (flat // nx) >> zoom
    level_cols = (flat % nx) >> zoom
    keys = np.unique((level_rows // tile_size) * tile_cols + (level_cols // tile_size))
    return [(int(key // tile_cols), int(key % tile_cols)) for key in keys]


def cut_tile(window: np.ndarray, tile_size: int) -> np.ndarray:
    """Turn one layer window into a read-only ``tile_size``-square tile.

    Interior windows come back as **zero-copy read-only views** of the
    layer; only edge windows (short of a full tile) allocate, NaN-padded to
    size.  Every tile the serve tier hands out flows through here, so the
    no-copy hot path and the immutability contract live in one place —
    consumers that need scratch space copy at the mutation site.
    """
    if window.shape == (tile_size, tile_size):
        if window.flags.writeable:
            window = window.view()
            window.flags.writeable = False
        return window
    padded = np.full((tile_size, tile_size), np.nan)
    padded[: window.shape[0], : window.shape[1]] = window
    padded.flags.writeable = False
    return padded


# ---------------------------------------------------------------------------
# The pyramid product
# ---------------------------------------------------------------------------


@dataclass
class PyramidLevel:
    """One resolution level: a grid plus value/weight/coverage layers."""

    zoom: int
    grid: GridDefinition
    variables: dict[str, np.ndarray]
    weights: dict[str, np.ndarray]
    coverage: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape


@dataclass
class TilePyramid:
    """Overview levels plus tile addressing over one Level-3 product.

    ``levels[0]`` is the base resolution; ``levels[k]`` halves (ceil) the
    rows and columns of ``levels[k-1]``.  ``metadata`` carries the source
    product's provenance (granule ids, fingerprint) plus the pyramid build
    parameters.
    """

    tile_size: int
    levels: tuple[PyramidLevel, ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a pyramid must have at least its base level")

    @property
    def base_grid(self) -> GridDefinition:
        return self.levels[0].grid

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.levels[0].variables)

    @property
    def fingerprint(self) -> str:
        return str(self.metadata.get("fingerprint", ""))

    def level(self, zoom: int) -> PyramidLevel:
        if not 0 <= zoom < self.n_levels:
            raise IndexError(
                f"zoom {zoom} out of range: this pyramid has levels 0..{self.n_levels - 1}"
            )
        return self.levels[zoom]

    def clamp_zoom(self, zoom: int) -> int:
        """Nearest available zoom (requests may over-ask on shallow pyramids)."""
        return max(0, min(int(zoom), self.n_levels - 1))

    def n_tiles(self, zoom: int) -> tuple[int, int]:
        """(tile_rows, tile_cols) of one level."""
        return tile_grid(self.level(zoom).shape, self.tile_size)

    def tile(self, variable: str, zoom: int, row: int, col: int) -> np.ndarray:
        """One NaN-padded ``tile_size`` x ``tile_size`` tile of a value layer."""
        level = self.level(zoom)
        rows, cols = self.n_tiles(zoom)
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(
                f"tile ({row}, {col}) out of range: level {zoom} has "
                f"{rows} x {cols} tiles"
            )
        try:
            layer = level.variables[variable]
        except KeyError:
            raise KeyError(
                f"no variable {variable!r} in this pyramid; available: "
                f"{sorted(level.variables)}"
            ) from None
        ts = self.tile_size
        window = layer[row * ts : (row + 1) * ts, col * ts : (col + 1) * ts]
        return cut_tile(window, ts)

    def tile_bbox(self, zoom: int, row: int, col: int) -> tuple[float, float, float, float]:
        """Projected-metre ``(x_min, y_min, x_max, y_max)`` of one tile."""
        level = self.level(zoom)
        span = level.grid.cell_size_m * self.tile_size
        x0 = level.grid.x_min_m + col * span
        y0 = level.grid.y_min_m + row * span
        return (x0, y0, x0 + span, y0 + span)

    def tiles_for_bbox(self, bbox: Sequence[float], zoom: int) -> list[tuple[int, int]]:
        """Tile addresses of one level intersecting a projected bbox.

        ``zoom`` must be a real level of this pyramid (``IndexError``
        otherwise, like :meth:`tile` / :meth:`tile_bbox` — silently clamping
        here would hand back addresses that are only valid at a *different*
        zoom).  Callers wanting best-effort resolution clamp explicitly with
        :meth:`clamp_zoom` first, the way the query engine does.
        """
        self.level(zoom)  # validate, same contract as tile()/tile_bbox()
        base = self.base_grid
        return tiles_for_bbox(
            bbox,
            (base.x_min_m, base.y_min_m),
            base.cell_size_m,
            base.shape,
            zoom,
            self.tile_size,
        )


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def _weight_layer(product: Level3Grid, variable: str, default: str) -> np.ndarray:
    """The count layer that weights one variable's reduction."""
    name = default
    if (
        variable.startswith(_FREEBOARD_WEIGHTED_PREFIXES)
        and "n_freeboard_segments" in product.variables
    ):
        name = "n_freeboard_segments"
    try:
        return np.asarray(product.variables[name], dtype=float)
    except KeyError:
        raise ValueError(
            f"weight variable {name!r} is not in the product; available: "
            f"{sorted(product.variables)}"
        ) from None


def _level_grid(base: GridDefinition, zoom: int) -> GridDefinition:
    """The coarsened grid of one level (same origin, doubled cell size)."""
    ny, nx = level_shape(base.shape, zoom)
    return GridDefinition(
        x_min_m=base.x_min_m,
        y_min_m=base.y_min_m,
        cell_size_m=base.cell_size_m * (2**zoom),
        nx=nx,
        ny=ny,
        projection=base.projection,
    )


def is_pyramid_variable(name: str, dtype: Any) -> bool:
    """Whether a product layer is served as a pyramid value layer.

    Count layers are reduction *weights*, not values, and the mosaic's
    ``coverage_fraction`` is superseded by the pyramid's own coverage
    reduction — so only the other float layers are servable.  The catalog
    applies the same rule from sidecar dtypes, so the query engine can
    reject a non-servable variable before decoding anything.
    """
    try:
        servable = np.issubdtype(np.dtype(dtype), np.floating)
    except TypeError:
        return False
    return servable and name != "coverage_fraction"


def default_pyramid_variables(product: Level3Grid) -> tuple[str, ...]:
    """The float-valued layers of a product (counts are weights, not values)."""
    return tuple(
        name
        for name, value in product.variables.items()
        if is_pyramid_variable(name, np.asarray(value).dtype)
    )


def build_pyramid(
    product: Level3Grid,
    variables: Iterable[str] | None = None,
    serve: ServeConfig = DEFAULT_SERVE,
) -> TilePyramid:
    """Build the tile pyramid of one Level-3 product.

    ``variables`` defaults to every float-valued layer of the product.  The
    base level's contributing weights mask non-finite values out, so a cell
    that reports NaN at full resolution (empty or below the ``min_segments``
    floor) never contributes to any overview.
    """
    names = tuple(variables) if variables is not None else default_pyramid_variables(product)
    if not names:
        raise ValueError("cannot build a pyramid with no variables")
    missing = sorted(set(names) - set(product.variables))
    if missing:
        raise ValueError(
            f"variables not in the product: {missing}; available: "
            f"{sorted(product.variables)}"
        )

    values: dict[str, np.ndarray] = {}
    weights: dict[str, np.ndarray] = {}
    for name in names:
        layer = np.asarray(product.variables[name], dtype=float)
        weight = _weight_layer(product, name, serve.weight_variable)
        values[name] = layer
        weights[name] = np.where(np.isfinite(layer), weight, 0.0)
    base_weight = _weight_layer(product, serve.weight_variable, serve.weight_variable)
    coverage = (base_weight > 0).astype(float)

    base = product.grid
    levels = [
        PyramidLevel(
            zoom=0,
            grid=base,
            variables=values,
            weights=weights,
            coverage=coverage,
        )
    ]
    total_levels = n_levels_for(base.shape, serve.tile_size, serve.max_levels)
    for zoom in range(1, total_levels):
        prev = levels[-1]
        reduced_values: dict[str, np.ndarray] = {}
        reduced_weights: dict[str, np.ndarray] = {}
        for name in names:
            out_values, out_weights = kpyramid.reduce_mean(prev.variables[name], prev.weights[name])
            reduced_values[name] = out_values
            reduced_weights[name] = out_weights
        levels.append(
            PyramidLevel(
                zoom=zoom,
                grid=_level_grid(base, zoom),
                variables=reduced_values,
                weights=reduced_weights,
                coverage=kpyramid.reduce_coverage(prev.coverage),
            )
        )

    metadata = dict(product.metadata)
    metadata.update(
        {
            "tile_size": serve.tile_size,
            "weight_variable": serve.weight_variable,
            "pyramid_variables": list(names),
            "n_levels": total_levels,
        }
    )
    return TilePyramid(tile_size=serve.tile_size, levels=tuple(levels), metadata=metadata)
