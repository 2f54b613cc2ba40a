"""Vectorized hot-path kernels with a reference/vectorized dispatch switch.

The hottest inner loops of the pipeline each have two interchangeable
implementations in this package:

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
per-step / per-candidate loops, kept as the ground truth the vectorized
kernels are equivalence-tested against (``tests/test_kernels_equivalence.py``
asserts agreement to 1e-10, and exact agreement for the drift, resampling
and random-field kernels) and benchmarked against
(``benchmarks/bench_kernels.py``).

Backend selection
-----------------

The active backend is one process-global switch, the only backend decision
in the code: every kernel entry point reads :func:`get_backend` when it is
called.  It defaults to ``"vectorized"``; the ``REPRO_KERNEL_BACKEND``
environment variable overrides the initial value::

    from repro import kernels

    kernels.set_backend("reference")          # sticky switch
    with kernels.use_backend("vectorized"):   # scoped switch
        ...

Process-pool workers follow the driver: ``MapReduceEngine`` sends the
driver's backend with every task, so a persistent pool runs each job under
the backend active at submission, not the one it was started with.
Products and pyramids stamp the backend that was active when they were
computed as ``kernel_backend`` metadata.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Names of the available kernel backends.
KERNEL_BACKENDS = ("vectorized", "reference")

_active_backend = os.environ.get("REPRO_KERNEL_BACKEND", "vectorized")
if _active_backend not in KERNEL_BACKENDS:
    raise ValueError(
        f"REPRO_KERNEL_BACKEND={_active_backend!r} is not one of {KERNEL_BACKENDS}"
    )


def get_backend() -> str:
    """Name of the currently active kernel backend."""
    return _active_backend


def set_backend(name: str) -> None:
    """Select the process-global kernel backend (``vectorized`` or ``reference``)."""
    global _active_backend
    if name not in KERNEL_BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; choose from {KERNEL_BACKENDS}")
    _active_backend = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager that temporarily switches the kernel backend."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


from repro.kernels import (  # noqa: E402
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
    "KERNEL_BACKENDS",
    "confidence",
    "drift",
    "get_backend",
    "gridding",
    "lstm",
    "pyramid",
    "random_field",
    "resampling",
    "sea_surface",
    "set_backend",
    "use_backend",
]
