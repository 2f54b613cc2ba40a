"""Live products: in-place pyramid updates and in-memory serving.

Two pieces the ingest tier (:mod:`repro.ingest`) builds on:

* :class:`IncrementalPyramidBuilder` keeps one :class:`~repro.serve.pyramid.TilePyramid`
  current as its source mosaic evolves, rebuilding **only** the tiles whose
  footprint contains a dirty base cell.  Identity argument: the 2x2
  reduction kernels (:mod:`repro.kernels.pyramid`) are strictly local —
  output cell ``(i, j)`` reads children ``(2i..2i+1, 2j..2j+1)`` only — so
  running the real kernel on the even-aligned parent slice of one tile
  produces bit-for-bit the block a full-array reduction would.  After an
  update the pyramid equals a from-scratch :func:`~repro.serve.pyramid.build_pyramid`
  of the new mosaic, byte for byte, at a cost proportional to the dirty
  footprint rather than the grid.
* :class:`LivePyramidLoader` serves installed in-memory pyramids (falling
  back to npz decode for everything else), refines tile provenance with
  per-tile-region **revisions** (a tile's fingerprint advances only when an
  ingest actually rebuilt it), and carries the stale-while-revalidate flag
  the engine stamps onto responses while a rebuild is in flight.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_SERVE, ServeConfig
from repro.kernels import pyramid as kpyramid
from repro.l3.product import Level3Grid
from repro.serve.catalog import CatalogEntry
from repro.serve.pyramid import TilePyramid, _weight_layer, tiles_for_cells
from repro.serve.query import ProductLoader, TileKey

__all__ = ["IncrementalPyramidBuilder", "LivePyramidLoader", "TileAddress"]

#: Address of one pyramid tile: (zoom, tile_row, tile_col).
TileAddress = tuple[int, int, int]


class IncrementalPyramidBuilder:
    """Keep a tile pyramid current by rebuilding only its dirty tiles.

    Owns (and mutates in place) the pyramid passed in — build it once from
    the seed mosaic with :func:`~repro.serve.pyramid.build_pyramid`, then
    call :meth:`update` with each refreshed mosaic snapshot and the dirty
    flat cell indices reported by
    :meth:`repro.l3.merge.MosaicAccumulator.add`.

    ``revisions`` maps every rebuilt tile address to the number of times it
    was rebuilt; :class:`LivePyramidLoader` folds it into the per-tile
    provenance fingerprints.  ``last_rebuilt`` records the addresses of the
    most recent update, so tests can assert *exactly* which tiles were
    touched.
    """

    def __init__(self, pyramid: TilePyramid, serve: ServeConfig = DEFAULT_SERVE) -> None:
        if pyramid.tile_size != serve.tile_size:
            raise ValueError(
                f"pyramid tile_size {pyramid.tile_size} does not match the "
                f"serve config tile_size {serve.tile_size}"
            )
        self.pyramid = pyramid
        self.serve = serve
        self.revisions: dict[TileAddress, int] = {}
        self.last_rebuilt: tuple[TileAddress, ...] = ()
        self.n_updates = 0

    def update(self, product: Level3Grid, dirty_cells: np.ndarray) -> list[TileAddress]:
        """Fold one refreshed mosaic into the pyramid; return rebuilt tiles.

        ``product`` is the full new snapshot (cells outside ``dirty_cells``
        must be unchanged — the :class:`~repro.l3.merge.MosaicAccumulator`
        contract); ``dirty_cells`` are flat row-major base-grid indices.
        Every level's tiles overlapping the dirty footprint are recomputed
        with the real reduction kernels on even-aligned parent slices, so
        the result is byte-identical to a full rebuild.  Returns the
        rebuilt tile addresses across all levels (zoom 0 included — its
        tiles changed by direct value writes).
        """
        base = self.pyramid.levels[0]
        if product.grid != base.grid:
            raise ValueError("product grid does not match the pyramid base grid")
        dirty = np.asarray(dirty_cells, dtype=np.int64).ravel()
        if dirty.size == 0:
            self.last_rebuilt = ()
            self.n_updates += 1
            self._refresh_metadata(product)
            return []

        ts = self.pyramid.tile_size
        base_shape = base.grid.shape
        names = tuple(base.variables)

        # Level 0: write the dirty cells of every value/weight layer and of
        # the coverage mask straight from the new snapshot (same conversion
        # path as build_pyramid, restricted to the dirty indices).
        for name in names:
            layer = np.asarray(product.variables[name], dtype=float).ravel()[dirty]
            weight = _weight_layer(product, name, self.serve.weight_variable).ravel()[dirty]
            base.variables[name].ravel()[dirty] = layer
            base.weights[name].ravel()[dirty] = np.where(np.isfinite(layer), weight, 0.0)
        base_weight = _weight_layer(
            product, self.serve.weight_variable, self.serve.weight_variable
        ).ravel()[dirty]
        base.coverage.ravel()[dirty] = (base_weight > 0).astype(float)

        rebuilt: list[TileAddress] = [
            (0, row, col) for row, col in tiles_for_cells(dirty, base_shape, 0, ts)
        ]

        # Overview levels: per dirty tile, run the real 2x2 kernels on the
        # even-aligned parent slice.  The slice starts at 2*ts*row (always
        # even), so its reduction is the corresponding block of the
        # full-array reduction, bit for bit; odd slice edges only occur at
        # the grid boundary, exactly where the full-array kernel pads too.
        for zoom in range(1, self.pyramid.n_levels):
            prev = self.pyramid.levels[zoom - 1]
            level = self.pyramid.levels[zoom]
            for row, col in tiles_for_cells(dirty, base_shape, zoom, ts):
                r0, r1 = 2 * ts * row, 2 * ts * (row + 1)
                c0, c1 = 2 * ts * col, 2 * ts * (col + 1)
                for name in names:
                    values, weights = kpyramid.reduce_mean(
                        prev.variables[name][r0:r1, c0:c1],
                        prev.weights[name][r0:r1, c0:c1],
                    )
                    out_rows, out_cols = values.shape
                    level.variables[name][
                        ts * row : ts * row + out_rows, ts * col : ts * col + out_cols
                    ] = values
                    level.weights[name][
                        ts * row : ts * row + out_rows, ts * col : ts * col + out_cols
                    ] = weights
                coverage = kpyramid.reduce_coverage(prev.coverage[r0:r1, c0:c1])
                level.coverage[
                    ts * row : ts * row + coverage.shape[0],
                    ts * col : ts * col + coverage.shape[1],
                ] = coverage
                rebuilt.append((zoom, row, col))

        for address in rebuilt:
            self.revisions[address] = self.revisions.get(address, 0) + 1
        self.last_rebuilt = tuple(rebuilt)
        self.n_updates += 1
        self._refresh_metadata(product)
        return rebuilt

    def _refresh_metadata(self, product: Level3Grid) -> None:
        """Mirror build_pyramid's metadata for the refreshed source product."""
        metadata = dict(product.metadata)
        metadata.update(
            {
                "tile_size": self.pyramid.tile_size,
                "weight_variable": self.serve.weight_variable,
                "pyramid_variables": list(self.pyramid.levels[0].variables),
                "n_levels": self.pyramid.n_levels,
            }
        )
        self.pyramid.metadata = metadata


class LivePyramidLoader(ProductLoader):
    """A product loader that can serve installed in-memory pyramids.

    Behaves exactly like :class:`~repro.serve.query.ProductLoader` for
    batch products; for keys installed via :meth:`install` it serves the
    live pyramid object without touching the filesystem, appends the
    per-tile-region revision to tile fingerprints, and reports the
    stale-while-revalidate flag while the ingest tier is mid-rebuild.
    """

    def __init__(self, serve: ServeConfig = DEFAULT_SERVE) -> None:
        super().__init__(serve)
        self._live: dict[str, TilePyramid] = {}
        self._revisions: dict[str, dict[TileAddress, int]] = {}
        self._stale: set[str] = set()

    def install(
        self,
        key: str,
        pyramid: TilePyramid,
        revisions: dict[TileAddress, int] | None = None,
    ) -> None:
        """Serve ``key`` from an in-memory pyramid from now on.

        ``revisions`` may be the live dict of an
        :class:`IncrementalPyramidBuilder` — it is read at fingerprint time,
        so later in-place updates are picked up without re-installing.
        """
        self._live[key] = pyramid
        if revisions is not None:
            self._revisions[key] = revisions
        self._stale.discard(key)

    def installed(self, key: str) -> bool:
        return key in self._live

    def decode(self, entry: CatalogEntry) -> TilePyramid:
        live = self._live.get(entry.key)
        if live is not None:
            return live
        return super().decode(entry)

    def _window_tiles(self, entry, needed):
        # Installed keys serve from the in-memory pyramid (which the ingest
        # tier mutates in place); the on-disk blob may be a revision behind,
        # so the raw windowed-read fast path must not bypass it.
        if entry.key in self._live:
            return None
        return super()._window_tiles(entry, needed)

    def tile_fingerprint(self, key: TileKey) -> str:
        base = super().tile_fingerprint(key)
        revisions = self._revisions.get(key[0])
        if revisions is None:
            return base
        return f"{base}#r{revisions.get((key[2], key[3], key[4]), 0)}"

    # -- stale-while-revalidate ---------------------------------------------

    def is_stale(self, product_key: str) -> bool:
        return product_key in self._stale

    def mark_stale(self, product_key: str) -> None:
        """Flag a product as mid-rebuild: responses carry ``stale=True``."""
        self._stale.add(product_key)

    def clear_stale(self, product_key: str) -> None:
        self._stale.discard(product_key)
