"""Level-3 gridded products: polar-grid binning, mosaics, product files.

The paper stops at along-track (Level-2 style) output — classified 2 m
segments, freeboard profiles, emulated ATL07/ATL10 records.  This package
adds the layer every downstream consumer of sea-ice data actually works
with, mirroring operational Level-3 processors such as pysiral:

* :class:`~repro.geodesy.grid.GridDefinition` (re-exported here) — the
  shared EPSG:3976-style metre grid: extent, cell size, point -> cell
  indexing and cell-centre lat/lon via the polar stereographic projection;
* :class:`~repro.l3.processor.Level3Processor` — bins per-granule
  classified segments and freeboards into per-cell statistics (count /
  mean / median / std / MAD, class fractions, hydrostatic thickness) via
  the vectorized :mod:`repro.kernels.gridding` kernels, and mosaics
  granule grids into fleet composites with propagated uncertainty (std of
  contributing granule means, granule counts, coverage);
* :mod:`repro.l3.writer` — self-describing on-disk products (npz arrays +
  JSON metadata incl. grid definition and config fingerprint) that reload
  **bit-identically**;
* :mod:`repro.l3.merge` — :class:`~repro.l3.merge.MosaicAccumulator`, the
  online counterpart of :meth:`Level3Processor.mosaic
  <repro.l3.processor.Level3Processor.mosaic>`: granules join the fleet
  mosaic one at a time (the live-ingest path), with dirty-cell accounting
  and a bit-identity guarantee against the batch mosaic — both share
  :func:`~repro.l3.processor.mean_and_std_across` as the single source of
  the merge math.

Gridding runs as the registered per-granule ``grid_granule`` stage and the
pooled ``mosaic_campaign`` stage, which takes every granule grid of a
fleet (content-fingerprinted, so warm-cache campaigns re-grid only changed
granules); :meth:`repro.campaign.CampaignRunner.to_l3` is the fleet-level
entry point.

Quick start::

    from repro.campaign import CampaignConfig, CampaignRunner
    from repro.l3 import read_level3, write_level3

    runner = CampaignRunner(CampaignConfig(grid={"cloud_fraction": (0.1, 0.4)}))
    l3 = runner.to_l3(runner.run())
    write_level3(l3.mosaic, "products/ross_sea_mosaic")
    reloaded = read_level3("products/ross_sea_mosaic")   # bit-identical
"""

from repro.geodesy.grid import GridDefinition
from repro.l3.merge import MERGED_COUNT_LAYERS, MERGED_MEAN_LAYERS, MosaicAccumulator
from repro.l3.processor import Level3Processor, mean_and_std_across
from repro.l3.product import Level3Grid, VARIABLE_ATTRS
from repro.l3.writer import (
    L3_FORMAT,
    PRODUCT_FORMATS,
    Level3ProductError,
    load_sidecar,
    read_level3,
    write_level3,
)

__all__ = [
    "GridDefinition",
    "L3_FORMAT",
    "PRODUCT_FORMATS",
    "Level3Grid",
    "Level3ProductError",
    "Level3Processor",
    "MERGED_COUNT_LAYERS",
    "MERGED_MEAN_LAYERS",
    "MosaicAccumulator",
    "VARIABLE_ATTRS",
    "load_sidecar",
    "mean_and_std_across",
    "read_level3",
    "write_level3",
]
