"""Fixed-window resampling reductions.

:func:`repro.resampling.window.resample_fixed_window` summarises the signal
photons of every 2 m window.  Sums, means, minima and maxima are single
``reduceat`` calls; the two reductions without a ``reduceat`` form live here:

* :func:`grouped_median` — the median height per window (``np.median``
  semantics: the mean of the two middle values for even counts, NaN for an
  empty window or one holding a NaN);
* :func:`grouped_majority` — the most frequent class code per window, the
  smallest code on ties (``np.unique`` + ``np.argmax`` semantics),
  ``CLASS_UNLABELED`` for an empty window.

Both take the photons sorted by window and ``boundaries`` of length
``n_windows + 1`` giving each window's slice.  Their oracles
(:mod:`repro.kernels.reference`) loop over the non-empty windows.  The
kernels sort every window's values at once with one ``np.lexsort`` by
(window, value) for the median, and build every window's class histogram
with one composite-key ``np.bincount`` for the majority.  The outputs are
bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.config import CLASS_UNLABELED
from repro.kernels._segments import segmented_median


def _window_ids(boundaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window counts and the window id of every photon in the slice."""
    counts = np.diff(boundaries)
    return counts, np.repeat(np.arange(counts.size), counts)


def grouped_median(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Median of ``values[boundaries[i]:boundaries[i + 1]]`` per window.

    One lexsort by (window, value); empty windows get NaN.
    """
    counts, window = _window_ids(boundaries)
    window_values = values[boundaries[0] : boundaries[-1]]
    median = segmented_median(window, window_values, counts)
    # np.median returns NaN for a window holding a NaN.
    median[window[np.isnan(window_values)]] = np.nan
    return median


def grouped_majority(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Most frequent class code per window (smallest on ties), in ``values.dtype``.

    ``values`` are small-range integer codes (one composite-key bincount
    spans their range); empty windows get ``CLASS_UNLABELED``.
    """
    counts, window = _window_ids(boundaries)
    out = np.full(counts.size, CLASS_UNLABELED, dtype=values.dtype)
    non_empty = counts > 0
    if not non_empty.any():
        return out
    codes = values[boundaries[0] : boundaries[-1]].astype(np.int64)
    lowest = int(codes.min())
    span = int(codes.max()) - lowest + 1
    histogram = np.bincount(window * span + (codes - lowest), minlength=counts.size * span)
    # argmax returns the first maximum, i.e. the smallest code on ties.
    out[non_empty] = histogram.reshape(counts.size, span)[non_empty].argmax(axis=1) + lowest
    return out
