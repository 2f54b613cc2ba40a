"""Full-size planes rebuilt from the values inside a mask.

The pickled forms of
:class:`~repro.sentinel2.segmentation.SegmentationResult` and
:class:`~repro.l3.product.Level3Grid` keep only the pixels or cells a
reader can see, with a boolean mask saying where they go; unpickling
rebuilds each plane with :func:`fill_outside`.
"""

from __future__ import annotations

import numpy as np


def fill_outside(mask: np.ndarray, values: np.ndarray, fill: object) -> np.ndarray:
    """A ``mask``-shaped plane of ``values.dtype``: ``values`` at the marked
    cells (in row-major order, as ``plane[mask]`` reads them) and ``fill``
    everywhere else.  Same-dtype assignment copies bytes, so NaN payloads
    and ``-0.0`` in ``values`` survive."""
    plane = np.full(mask.shape, fill, dtype=values.dtype)
    plane[mask] = values
    return plane
