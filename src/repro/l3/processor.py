"""Level-2 -> Level-3 processing: grid granules, mosaic fleets.

:class:`Level3Processor` turns along-track (Level-2 style) campaign output
— per-beam classified segments and freeboard profiles — into gridded
composites on a shared polar stereographic metre grid, the way operational
processors (e.g. pysiral's Level-3 processor) bin their Level-2 orbit files
onto the NSIDC/EASE2 grids:

* :meth:`Level3Processor.grid_granule` pools one granule's beams, bins the
  segments with the :mod:`repro.kernels.gridding` kernels (count / mean /
  median / std / MAD of freeboard and hydrostatic thickness, per-class
  segment fractions) and returns a per-granule :class:`~repro.l3.product.Level3Grid`;
* :meth:`Level3Processor.mosaic` composites many per-granule grids into one
  fleet-level product with uncertainty propagation: the per-cell **std of
  the contributing granule means**, the granule count and the coverage
  fraction.

Documented statistics conventions:

* within a granule, per-cell std/MAD are population statistics — a cell
  with a single segment reports 0.0, an empty cell NaN;
* across a mosaic, ``freeboard_std``/``thickness_std`` are the sample std
  (``ddof=1``) of the contributing granule means — a cell with fewer than
  two contributing granules reports NaN, never garbage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.config import (
    CLASS_NAMES,
    CLASS_OPEN_WATER,
    L3GridConfig,
    N_CLASSES,
)
from repro.freeboard.thickness import thickness_from_freeboard
from repro.geodesy.grid import GridDefinition
from repro.kernels import get_backend
from repro.kernels.gridding import cell_class_counts, cell_statistics
from repro.l3.product import Level3Grid

if TYPE_CHECKING:  # runtime imports stay light; these are duck-typed inputs
    from repro.classification.pipeline import ClassifiedTrack
    from repro.freeboard.freeboard import FreeboardResult
    from repro.surface.scene import SceneConfig


class Level3Processor:
    """Grid classified along-track segments onto a polar stereographic grid.

    Parameters
    ----------
    grid:
        The target grid.  Build one explicitly or via :meth:`from_config`.
    min_segments:
        Cells with fewer contributing freeboard segments report NaN
        freeboard/thickness statistics (counts are always reported).

    Products stamp the kernel backend active when they are computed
    (:func:`repro.kernels.get_backend`) as ``kernel_backend`` metadata.
    """

    def __init__(self, grid: GridDefinition, min_segments: int = 1) -> None:
        if min_segments < 1:
            raise ValueError("min_segments must be >= 1")
        self.grid = grid
        self.min_segments = min_segments

    @classmethod
    def from_config(
        cls, config: L3GridConfig, scene: "SceneConfig | None" = None
    ) -> "Level3Processor":
        """Build the processor from the experiment's ``l3`` config slice.

        Extent fields left as ``None`` default to the scene extent, so the
        grid follows the simulated footprint unless pinned explicitly (which
        campaigns whose scenarios sweep the scene size must do — every
        granule of a mosaic needs the same grid).
        """
        x_min = config.x_min_m
        y_min = config.y_min_m
        width = config.width_m
        height = config.height_m
        if None in (x_min, y_min, width, height):
            if scene is None:
                raise ValueError(
                    "L3GridConfig leaves the grid extent to the scene, "
                    "but no scene config was provided"
                )
            x_min = scene.origin_x_m if x_min is None else x_min
            y_min = scene.origin_y_m if y_min is None else y_min
            width = scene.width_m if width is None else width
            height = scene.height_m if height is None else height
        grid = GridDefinition.from_extent(
            x_min_m=float(x_min),
            x_max_m=float(x_min) + float(width),
            y_min_m=float(y_min),
            y_max_m=float(y_min) + float(height),
            cell_size_m=config.cell_size_m,
        )
        return cls(grid, min_segments=config.min_segments)

    # -- Level-2 -> per-granule grid ----------------------------------------

    def grid_granule(
        self,
        classified: "Mapping[str, ClassifiedTrack]",
        freeboard: "Mapping[str, FreeboardResult]",
        granule_id: str = "granule",
    ) -> Level3Grid:
        """Bin one granule's classified segments and freeboards onto the grid.

        ``classified`` and ``freeboard`` are the per-beam retrieval artifacts
        of the stage graph; segments falling outside the grid extent are
        dropped (a granule wholly outside yields an all-empty grid, not an
        error).  Freeboard/thickness statistics use ice segments only (open
        water is the reference surface itself); class fractions use every
        in-grid segment.
        """
        if set(classified) != set(freeboard):
            raise ValueError(
                "classified and freeboard must cover the same beams, got "
                f"{sorted(classified)} vs {sorted(freeboard)}"
            )
        x, y, labels, fb = _pooled_arrays(classified, freeboard)
        flat = self.grid.flat_index(x, y)
        inside = flat >= 0
        n_cells = self.grid.n_cells

        counts = cell_class_counts(flat[inside], labels[inside], n_cells, N_CLASSES)
        n_segments = counts.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            fractions = np.where(n_segments > 0, counts / n_segments, np.nan)

        ice = inside & (labels != CLASS_OPEN_WATER) & np.isfinite(fb)
        fb_count, fb_mean, fb_median, fb_std, fb_mad = cell_statistics(flat[ice], fb[ice], n_cells)
        thickness = thickness_from_freeboard(fb[ice]).thickness_m
        _, th_mean, _, th_std, _ = cell_statistics(flat[ice], thickness, n_cells)

        # Cells below the contributor floor report NaN statistics by
        # convention; the counts still say how thin the cell was.
        sparse = fb_count < self.min_segments
        for arr in (fb_mean, fb_median, fb_std, fb_mad, th_mean, th_std):
            arr[sparse] = np.nan

        shape = self.grid.shape
        variables = {
            "n_segments": n_segments.reshape(shape),
            "n_freeboard_segments": fb_count.reshape(shape),
            "freeboard_mean": fb_mean.reshape(shape),
            "freeboard_median": fb_median.reshape(shape),
            "freeboard_std": fb_std.reshape(shape),
            "freeboard_mad": fb_mad.reshape(shape),
            "thickness_mean": th_mean.reshape(shape),
            "thickness_std": th_std.reshape(shape),
        }
        for class_id, class_name in enumerate(CLASS_NAMES):
            variables[f"class_fraction_{class_name}"] = fractions[class_id].reshape(shape)

        return Level3Grid(
            grid=self.grid,
            variables=variables,
            metadata={
                "kind": "granule",
                "granule_id": granule_id,
                "beams": sorted(classified),
                "n_segments_total": int(n_segments.sum()),
                "kernel_backend": get_backend(),
                "min_segments": int(self.min_segments),
            },
        )

    # -- per-granule grids -> fleet mosaic ----------------------------------

    def mosaic(self, grids: Sequence[Level3Grid]) -> Level3Grid:
        """Composite per-granule grids into one fleet-level product.

        Per cell: the unweighted mean of the contributing granule means, the
        sample std (``ddof=1``) of those means as the propagated uncertainty
        (NaN with fewer than two contributors), the contributing granule
        count, the total segment count and the coverage fraction
        (contributors / fleet size).  Class fractions are averaged over the
        granules that observed the cell.
        """
        if not grids:
            raise ValueError("cannot mosaic zero grids")
        for product in grids[1:]:
            if product.grid != grids[0].grid:
                raise ValueError(
                    "all grids of a mosaic must share one GridDefinition; "
                    "pin the extent in L3GridConfig when scenarios vary the scene"
                )
        n_fleet = len(grids)
        n_segments = np.sum([g.variable("n_segments") for g in grids], axis=0)
        n_fb_segments = np.sum(
            [g.variable("n_freeboard_segments") for g in grids], axis=0
        )
        n_granules = np.sum(
            [g.variable("n_segments") > 0 for g in grids], axis=0, dtype=np.int64
        )

        variables = {
            "n_segments": n_segments,
            "n_freeboard_segments": n_fb_segments,
            "n_granules": n_granules,
            "coverage_fraction": n_granules / float(n_fleet),
        }
        for name in ("freeboard_mean", "freeboard_median", "thickness_mean"):
            mean, std = mean_and_std_across(
                np.stack([g.variable(name) for g in grids])
            )
            variables[name] = mean
            if name.endswith("_mean"):
                variables[name.replace("_mean", "_std")] = std
        for class_name in CLASS_NAMES:
            name = f"class_fraction_{class_name}"
            mean, _ = mean_and_std_across(np.stack([g.variable(name) for g in grids]))
            variables[name] = mean

        return Level3Grid(
            grid=grids[0].grid,
            variables=variables,
            metadata={
                "kind": "mosaic",
                "granule_ids": [str(g.metadata.get("granule_id", "")) for g in grids],
                "n_granules": n_fleet,
                "n_segments_total": int(n_segments.sum()),
                "kernel_backend": get_backend(),
            },
        )


def _pooled_arrays(
    classified: "Mapping[str, ClassifiedTrack]",
    freeboard: "Mapping[str, FreeboardResult]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool (x, y, label, freeboard) across beams in mapping order."""
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    fbs: list[np.ndarray] = []
    for beam_name, track in classified.items():
        fb = freeboard[beam_name]
        if fb.n_segments != track.n_segments:
            raise ValueError(
                f"beam {beam_name!r}: freeboard has {fb.n_segments} segments, "
                f"classified track has {track.n_segments}"
            )
        xs.append(track.segments.x_m)
        ys.append(track.segments.y_m)
        labels.append(np.asarray(track.labels))
        fbs.append(np.asarray(fb.freeboard_m, dtype=float))
    if not xs:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=np.int64), empty
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(labels),
        np.concatenate(fbs),
    )


def mean_and_std_across(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NaN-aware per-cell mean and sample std across the granule axis.

    ``stacked`` has shape (n_granules, ...); NaN entries (granule did not
    observe the cell) do not contribute.  The std is ``ddof=1`` across the
    contributing granule means — NaN for fewer than two contributors, by
    the documented mosaic convention.

    This is the single source of the mosaic merge math: the batch
    :meth:`Level3Processor.mosaic` calls it on (n_granules, ny, nx) stacks
    and the online :class:`repro.l3.merge.MosaicAccumulator` calls it on
    (n_granules, n_dirty_cells) column stacks.  Both reduce over the outer
    axis, which NumPy accumulates sequentially per cell with non-finite
    entries as exact ``0.0`` terms — so the incremental path is
    bit-identical to the batch path by construction.
    """
    finite = np.isfinite(stacked)
    n = finite.sum(axis=0)
    total = np.where(finite, stacked, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(n > 0, total / n, np.nan)
        squared = np.where(finite, (stacked - mean) ** 2, 0.0).sum(axis=0)
        std = np.where(n > 1, np.sqrt(squared / np.maximum(n - 1, 1)), np.nan)
    return mean, std
