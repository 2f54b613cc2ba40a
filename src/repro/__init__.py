"""repro: scalable higher-resolution polar sea-ice classification and freeboard
calculation from ICESat-2 ATL03 data.

A from-scratch reproduction of Iqrah et al. (IPDPS 2025).  The package
provides:

* simulated ATL03 photon granules and Sentinel-2 scenes over a shared
  ground-truth Ross Sea ice surface (:mod:`repro.surface`,
  :mod:`repro.atl03`, :mod:`repro.sentinel2`);
* 2 m along-track resampling, feature extraction and 150-photon aggregation
  (:mod:`repro.resampling`);
* S2-based auto-labeling with drift correction (:mod:`repro.labeling`);
* LSTM / MLP classifiers built on a NumPy neural-network stack
  (:mod:`repro.ml`, :mod:`repro.classification`);
* map-reduce and data-parallel training substrates with calibrated cluster /
  multi-GPU timing models (:mod:`repro.distributed`);
* local sea-surface detection and freeboard retrieval
  (:mod:`repro.freeboard`), with emulated ATL07/ATL10 baselines
  (:mod:`repro.products`);
* end-to-end orchestration and table/figure regeneration
  (:mod:`repro.workflow`, :mod:`repro.evaluation`);
* a stage-graph pipeline engine: every workflow step is a registered,
  typed, content-fingerprinted stage; graph runs cache per stage and
  recompute only downstream of a config change (:mod:`repro.pipeline`);
* multi-granule campaigns: scenario grids run in parallel through the whole
  stage graph with one shared classifier and a resumable content-addressed
  on-disk cache (:mod:`repro.campaign`);
* vectorized hot-path kernels — windowed sea-surface estimation, ATL03
  confidence binning, LSTM time-stepping, Level-3 polar-grid binning — each
  equivalence-tested against its reference loop, kept as a test oracle in
  :mod:`repro.kernels.reference` (:mod:`repro.kernels`);
* Level-3 gridded products: campaign output binned onto the shared polar
  stereographic metre grid, multi-granule mosaics with propagated
  uncertainty, and self-describing on-disk product files (:mod:`repro.l3`);
* a product-serving layer: a sidecar-indexed product catalog, tile
  pyramids with vectorized overview reductions, a query engine with a
  fingerprint-keyed LRU tile cache and per-product decode batching, and a
  sharded request router that serves every request on the calling thread
  (:mod:`repro.serve`).

Quick start::

    from repro.workflow import ExperimentConfig, run_end_to_end

    outputs = run_end_to_end(ExperimentConfig(epochs=3, seed=0))
    print(outputs.classifier.report.as_row("LSTM"))
"""

from repro import config, kernels, pipeline
from repro.config import (
    CLASS_NAMES,
    CLASS_OPEN_WATER,
    CLASS_THICK_ICE,
    CLASS_THIN_ICE,
    CLASS_UNLABELED,
    N_CLASSES,
)

__version__ = "1.0.0"

__all__ = [
    "config",
    "kernels",
    "pipeline",
    "CLASS_NAMES",
    "CLASS_OPEN_WATER",
    "CLASS_THICK_ICE",
    "CLASS_THIN_ICE",
    "CLASS_UNLABELED",
    "N_CLASSES",
    "__version__",
]
