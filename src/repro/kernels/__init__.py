"""Vectorized hot-path kernels, each with a reference loop as its test oracle.

The hottest inner loops of the pipeline each have one implementation in
this package, under the public name that every caller uses:

* :mod:`repro.kernels.sea_surface` — windowed sea-surface estimation
  (searchsorted-bounded window membership, segmented medians/MAD outlier
  rejection and the NASA inverse-error weighting across all windows at once);
* :mod:`repro.kernels.confidence` — ATL03 per-bin modal surface finding
  (one ``np.bincount`` over composite ``(bin, height-cell)`` keys);
* :mod:`repro.kernels.lstm` — LSTM forward/backward over a whole minibatch
  (the input projection and the weight-gradient reductions are single GEMMs
  over all timesteps instead of one small GEMM per step);
* :mod:`repro.kernels.gridding` — Level-3 polar-grid binning (per-cell
  count/mean/median/std/MAD and class counts over millions of segments via
  composite-key ``np.bincount`` and segmented ``np.lexsort`` medians);
* :mod:`repro.kernels.pyramid` — tile-pyramid overview reductions
  (NaN-aware count-weighted means and coverage fractions over 2x2 child
  blocks, computed from four strided child planes at once);
* :mod:`repro.kernels.drift` — the S2 drift search (per-dx column and
  per-dy row index slabs over a precomputed rank image, one gather and one
  matrix-vector product per row of candidates, exact re-scoring of the
  near-best candidates);
* :mod:`repro.kernels.resampling` — the 2 m resampling median and majority
  class (one ``np.lexsort`` by (window, height) and one composite-key
  ``np.bincount`` over all windows);
* :mod:`repro.kernels.random_field` — the spectral synthesis behind every
  scene random field (coefficients drawn only where the Gaussian filter does
  not underflow, then the 1-D inverse FFTs of ``irfft2``, skipping the
  all-zero columns).

The *reference* implementations are the original per-window / per-bin /
per-step / per-candidate loops.  They live in :mod:`repro.kernels.reference`,
which no library module imports, as the ground truth the kernels are
equivalence-tested against (``tests/test_kernels_equivalence.py`` asserts
agreement to 1e-10, and exact agreement for the drift, resampling and
random-field kernels) and benchmarked against
(``benchmarks/bench_kernels.py``).  Its :func:`~repro.kernels.reference.oracles`
context manager sets every oracle onto its kernel's entry-point name for
the duration of a block, so tests and benchmarks can run a whole path on
the reference loops::

    from repro.kernels.reference import oracles

    with oracles():
        ...

Library code calls each kernel through its module attribute
(``kpyramid.reduce_mean(...)``, never a name bound at import), which is
what lets that one swap reach every caller.
"""

from __future__ import annotations

from repro.kernels import (
    confidence,
    drift,
    gridding,
    lstm,
    pyramid,
    random_field,
    resampling,
    sea_surface,
)

__all__ = [
    "confidence",
    "drift",
    "gridding",
    "lstm",
    "pyramid",
    "random_field",
    "resampling",
    "sea_surface",
]
