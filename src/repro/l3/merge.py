"""Online (incremental) mosaic merging with dirty-cell accounting.

:class:`MosaicAccumulator` maintains a fleet mosaic that granules can join
one at a time — the Level-3 half of the live-ingest tier
(:mod:`repro.ingest`).  The contract is strict **bit-identity**: after any
sequence of :meth:`MosaicAccumulator.add` calls, :meth:`snapshot` returns a
product byte-identical to :meth:`Level3Processor.mosaic
<repro.l3.processor.Level3Processor.mosaic>` over the same granules in
sorted-id order (which is the campaign expansion order for ``gNNN`` fleets).

Why identity holds, not just closeness:

* the integer layers (``n_segments``, ``n_freeboard_segments``,
  ``n_granules``) accumulate with exact integer addition, which commutes;
* the float layers (mean-of-means and across-granule std) are *recomputed*
  at exactly the cells the new granule touched, by stacking every stored
  contribution in sorted-id order and calling the same
  :func:`~repro.l3.processor.mean_and_std_across` the batch path uses.
  NumPy reduces the outer axis sequentially per cell, and a granule that
  does not observe a cell enters the sums as an exact ``0.0`` term, so a
  cell's value depends only on its own column of contributions — cells the
  granule did *not* touch already hold the batch answer and are left alone;
* ``coverage_fraction`` depends on the fleet size, so it is recomputed
  globally at every snapshot (it is cheap, and it is deliberately excluded
  from the servable pyramid variables by
  :func:`repro.serve.pyramid.is_pyramid_variable`).

Contributions are stored sparsely (flat indices of covered cells plus the
layer values at those cells), so memory scales with observed cells, not
with ``n_granules * grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_NAMES
from repro.geodesy.grid import GridDefinition
from repro.l3.processor import mean_and_std_across
from repro.l3.product import Level3Grid

#: Float layers merged as the mean of contributing granule values.
MERGED_MEAN_LAYERS: tuple[str, ...] = (
    "freeboard_mean",
    "freeboard_median",
    "thickness_mean",
) + tuple(f"class_fraction_{name}" for name in CLASS_NAMES)

#: Mean layers that also publish the across-granule sample std.
_STD_SOURCES: tuple[str, ...] = ("freeboard_mean", "thickness_mean")

#: Integer count layers accumulated by exact addition.
MERGED_COUNT_LAYERS: tuple[str, ...] = ("n_segments", "n_freeboard_segments")


@dataclass(frozen=True)
class _Contribution:
    """One granule's sparse footprint: covered cells and their values."""

    granule_id: str
    #: Sorted flat indices of cells with ``n_segments > 0``.
    indices: np.ndarray
    #: Float layer values at ``indices`` (NaN where below the
    #: ``min_segments`` floor), keyed by :data:`MERGED_MEAN_LAYERS`.
    values: dict[str, np.ndarray]


class MosaicAccumulator:
    """Fold granules into a fleet mosaic online, tracking dirty cells.

    Parameters
    ----------
    grid:
        The shared :class:`~repro.geodesy.grid.GridDefinition` every added
        granule must match.
    """

    def __init__(self, grid: GridDefinition) -> None:
        self.grid = grid
        self._contributions: dict[str, _Contribution] = {}
        shape = grid.shape
        self._counts: dict[str, np.ndarray] = {}
        self._n_granules = np.zeros(shape, dtype=np.int64)
        self._mean = {name: np.full(shape, np.nan) for name in MERGED_MEAN_LAYERS}
        self._std = {name: np.full(shape, np.nan) for name in _STD_SOURCES}

    # -- introspection ------------------------------------------------------

    @property
    def n_granules(self) -> int:
        """Number of granules merged so far."""
        return len(self._contributions)

    @property
    def granule_ids(self) -> tuple[str, ...]:
        """Merged granule ids in the canonical (sorted) stacking order."""
        return tuple(sorted(self._contributions))

    def __len__(self) -> int:
        return len(self._contributions)

    def __contains__(self, granule_id: str) -> bool:
        return granule_id in self._contributions

    # -- merging ------------------------------------------------------------

    def add(self, granule: Level3Grid) -> np.ndarray:
        """Merge one per-granule grid; return the dirty flat cell indices.

        The returned array holds the sorted flat indices (row-major over
        ``grid.shape``) of every cell the granule observed — exactly the
        cells whose mosaic statistics changed.  A granule wholly outside
        the observed region returns an empty array (and still counts
        toward the fleet size / coverage denominator).
        """
        if granule.grid != self.grid:
            raise ValueError(
                "granule grid does not match the accumulator grid; "
                "pin the extent in L3GridConfig when scenarios vary the scene"
            )
        granule_id = str(granule.metadata.get("granule_id", "")).strip()
        if not granule_id:
            raise ValueError("granule metadata must carry a non-empty granule_id")
        if granule_id in self._contributions:
            raise ValueError(f"granule {granule_id!r} was already merged")

        n_segments = np.asarray(granule.variable("n_segments"))
        dirty = np.flatnonzero(n_segments.ravel() > 0)
        contribution = _Contribution(
            granule_id=granule_id,
            indices=dirty,
            values={
                name: np.asarray(granule.variable(name), dtype=float).ravel()[dirty].copy()
                for name in MERGED_MEAN_LAYERS
            },
        )
        self._contributions[granule_id] = contribution

        # Integer layers: exact, order-independent accumulation.
        for name in MERGED_COUNT_LAYERS:
            layer = np.asarray(granule.variable(name))
            if name not in self._counts:
                self._counts[name] = np.zeros(self.grid.shape, dtype=layer.dtype)
            self._counts[name].ravel()[dirty] += layer.ravel()[dirty]
        self._n_granules.ravel()[dirty] += 1

        self._recompute_at(dirty)
        return dirty

    def _recompute_at(self, dirty: np.ndarray) -> None:
        """Recompute the float statistics at the dirty cells only.

        Builds the full (n_granules, n_dirty) column stack in sorted-id
        order and runs the shared batch merge math over it — the stack is
        restricted to dirty columns, so cost scales with the new granule's
        footprint, not with the grid.
        """
        if dirty.size == 0:
            return
        order = sorted(self._contributions)
        # Positions of each granule's covered cells within the dirty set,
        # computed once and reused for every layer.
        placements: list[tuple[int, np.ndarray, np.ndarray]] = []
        for rank, granule_id in enumerate(order):
            indices = self._contributions[granule_id].indices
            if indices.size == 0:
                continue
            pos = np.searchsorted(dirty, indices)
            pos = np.minimum(pos, dirty.size - 1)
            hit = dirty[pos] == indices
            if hit.any():
                placements.append((rank, pos[hit], hit))

        stacked = np.full((len(order), dirty.size), np.nan)
        for name in MERGED_MEAN_LAYERS:
            stacked.fill(np.nan)
            for rank, pos, hit in placements:
                values = self._contributions[order[rank]].values[name]
                stacked[rank, pos] = values[hit]
            mean, std = mean_and_std_across(stacked)
            self._mean[name].ravel()[dirty] = mean
            if name in _STD_SOURCES:
                self._std[name].ravel()[dirty] = std

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Level3Grid:
        """The current fleet mosaic, byte-identical to the batch product.

        Returns a new :class:`~repro.l3.product.Level3Grid` with copied
        arrays (safe to write / mutate) equal — variables, dtypes and
        metadata — to ``Level3Processor.mosaic`` over the merged granules
        in sorted-id order.
        """
        n_fleet = len(self._contributions)
        if n_fleet == 0:
            raise ValueError("cannot snapshot an empty accumulator; add a granule first")
        variables: dict[str, np.ndarray] = {
            "n_segments": self._counts["n_segments"].copy(),
            "n_freeboard_segments": self._counts["n_freeboard_segments"].copy(),
            "n_granules": self._n_granules.copy(),
            "coverage_fraction": self._n_granules / float(n_fleet),
        }
        for name in ("freeboard_mean", "freeboard_median", "thickness_mean"):
            variables[name] = self._mean[name].copy()
            if name in _STD_SOURCES:
                variables[name.replace("_mean", "_std")] = self._std[name].copy()
        for class_name in CLASS_NAMES:
            name = f"class_fraction_{class_name}"
            variables[name] = self._mean[name].copy()

        return Level3Grid(
            grid=self.grid,
            variables=variables,
            metadata={
                "kind": "mosaic",
                "granule_ids": list(self.granule_ids),
                "n_granules": n_fleet,
                "n_segments_total": int(variables["n_segments"].sum()),
            },
        )
