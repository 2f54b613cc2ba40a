"""S2 drift-search kernels (reference loop + vectorized).

Both backends scan the same grid of candidate image shifts — every ``dx`` in
``dxs`` crossed with every ``dy`` in ``dys`` — score each candidate with
:func:`alignment_score` and return the first highest-scoring candidate in
dx-major, dy-minor order, as ``(dx, dy, score, n_candidates)``.  When no
candidate has a finite score the result is ``(0.0, 0.0, -inf, n)``.

The reference backend calls :func:`alignment_score` once per candidate.  The
vectorized backend exploits that the search is separable: a segment's pixel
column depends only on ``dx`` and its row only on ``dy``.  It precomputes the
ordinal rank image and the per-``dx`` column / per-``dy`` row index slabs
once, then scores each ``dx`` row of candidates with one gather and one
matrix-vector product against the centred heights.  Those scores rank the
candidates; every candidate within :data:`RESCORE_TOLERANCE` of the best is
re-scored with :func:`alignment_score` itself, so the winner, its tie-break
and its score are exactly the reference's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_UNSEGMENTED
from repro.kernels import get_backend

if TYPE_CHECKING:
    from repro.sentinel2.scene import S2Image

#: Candidates whose vectorized score is within this distance of the best one
#: are re-scored exactly.  The vectorized and ``np.corrcoef`` correlations
#: differ by a few ULPs, far below this, so the exact winner is always among
#: the re-scored candidates.
RESCORE_TOLERANCE = 1e-9

#: Spread below which heights or ranks count as constant (score ``-inf``).
MIN_SPREAD = 1e-9


#: Raised when a shift reads a pixel that a corridor segmentation did not
#: compute: the search reaches farther than the segmented corridor.
_UNSEGMENTED_READ = "the drift search read a Sentinel-2 pixel outside the segmented corridor"


#: Ordinal rank of every int8 class id, indexed by the id's byte: open water
#: 0, thick ice 2, an unsegmented pixel NaN and any other id (thin ice) 1.
_RANK_OF_BYTE = np.ones(256)
_RANK_OF_BYTE[np.int8(CLASS_OPEN_WATER).view(np.uint8)] = 0.0
_RANK_OF_BYTE[np.int8(CLASS_THICK_ICE).view(np.uint8)] = 2.0
_RANK_OF_BYTE[np.int8(CLASS_UNSEGMENTED).view(np.uint8)] = np.nan


def _rank(labels: np.ndarray) -> np.ndarray:
    """Ordinal label rank of int8 class ids, as one table gather."""
    return _RANK_OF_BYTE[np.asarray(labels).astype(np.int8, copy=False).view(np.uint8)]


def alignment_score(
    class_map: np.ndarray,
    image: S2Image,
    seg_x: np.ndarray,
    seg_y: np.ndarray,
    seg_height: np.ndarray,
    dx: float,
    dy: float,
) -> float:
    """Score a candidate shift by label/elevation consistency.

    A correct alignment puts open-water labels on the lowest segments, thin
    ice in between and thick ice on the highest ones, so the score is the
    Pearson correlation between the segment heights and the ordinal label
    rank (water=0, thin=1, thick=2).  Correlation is robust to the strong
    class imbalance of the Ross Sea pack (a handful of water segments cannot
    dominate the score the way a class-mean difference could).  Querying the
    image at (x - dx) is equivalent to shifting the image by (dx, dy).
    """
    row, col = image.pixel_index(seg_x - dx, seg_y - dy)
    rank = _rank(class_map[row, col])
    if np.isnan(rank).any():
        raise ValueError(_UNSEGMENTED_READ)
    # The correlation is undefined when either side is constant.
    if rank.std() < MIN_SPREAD or seg_height.std() < MIN_SPREAD:
        return -np.inf
    return float(np.corrcoef(rank, seg_height)[0, 1])


def drift_search_reference(
    class_map: np.ndarray,
    image: S2Image,
    seg_x: np.ndarray,
    seg_y: np.ndarray,
    seg_height: np.ndarray,
    dxs: np.ndarray,
    dys: np.ndarray,
) -> tuple[float, float, float, int]:
    """Best candidate shift via one :func:`alignment_score` call per candidate."""
    best = (-np.inf, 0.0, 0.0)
    count = 0
    for dx in dxs:
        for dy in dys:
            count += 1
            score = alignment_score(class_map, image, seg_x, seg_y, seg_height, dx, dy)
            if score > best[0]:
                best = (score, float(dx), float(dy))
    return best[1], best[2], best[0], count


def drift_search_vectorized(
    class_map: np.ndarray,
    image: S2Image,
    seg_x: np.ndarray,
    seg_y: np.ndarray,
    seg_height: np.ndarray,
    dxs: np.ndarray,
    dys: np.ndarray,
) -> tuple[float, float, float, int]:
    """Best candidate shift, scoring one dx row of candidates per gather."""
    count = dxs.size * dys.size
    if count == 0 or seg_height.std() < MIN_SPREAD:
        return 0.0, 0.0, -np.inf, count

    # Rank image and index slabs: the same pixel_index arithmetic as the
    # reference, broadcast over the candidate axis.
    rank_flat = _rank(class_map).ravel()
    _, cols = image.pixel_index(seg_x - dxs[:, None], seg_y)
    rows, _ = image.pixel_index(seg_x, seg_y - dys[:, None])
    row_offsets = rows * class_map.shape[1]

    # Pearson correlation per candidate from rank sums: n * cov is
    # sum(r * hc) - mean(r) * sum(hc), and the rank sums of squares are
    # exact integers, so a constant rank (n * s2 == s1**2) is detected
    # exactly — the reference's ``rank.std() < MIN_SPREAD`` test.
    n = seg_height.size
    centred = seg_height - seg_height.mean()
    sum_centred = centred.sum()
    ss_height = centred @ centred
    rhs = np.column_stack([centred, np.ones(n)])
    scores = np.empty((dxs.size, dys.size))
    for i in range(dxs.size):
        rank = rank_flat[row_offsets + cols[i]]
        s_rh, s1 = (rank @ rhs).T
        # An unsegmented pixel's NaN rank reaches its candidate's rank sum.
        if np.isnan(s1).any():
            raise ValueError(_UNSEGMENTED_READ)
        s2 = np.einsum("ij,ij->i", rank, rank)
        ss_rank = s2 - s1 * s1 / n
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = (s_rh - s1 / n * sum_centred) / np.sqrt(ss_rank * ss_height)
        scores[i] = np.where(n * s2 == s1 * s1, -np.inf, corr)

    scores = np.nan_to_num(scores.ravel(), nan=-np.inf)
    top = scores.max()
    if not np.isfinite(top):
        return 0.0, 0.0, -np.inf, count
    best = (-np.inf, 0.0, 0.0)
    for flat in np.flatnonzero(scores >= top - RESCORE_TOLERANCE):
        dx, dy = dxs[flat // dys.size], dys[flat % dys.size]
        score = alignment_score(class_map, image, seg_x, seg_y, seg_height, dx, dy)
        if score > best[0]:
            best = (score, float(dx), float(dy))
    return best[1], best[2], best[0], count


def drift_search(
    class_map: np.ndarray,
    image: S2Image,
    seg_x: np.ndarray,
    seg_y: np.ndarray,
    seg_height: np.ndarray,
    dxs: np.ndarray,
    dys: np.ndarray,
) -> tuple[float, float, float, int]:
    """Dispatch to the active kernel backend.

    Parameters
    ----------
    class_map:
        Per-pixel classes of ``image`` (same shape as its pixel grid).
    image:
        The S2 acquisition whose grid maps positions to pixels.
    seg_x, seg_y, seg_height:
        Projected coordinates and finite heights of the track segments.
    dxs, dys:
        Candidate shifts per axis; every pair is scored.

    Returns
    -------
    tuple
        ``(dx, dy, score, n_candidates)`` of the first best candidate in
        dx-major order, or ``(0.0, 0.0, -inf, n_candidates)`` when no
        candidate has a finite score.
    """
    impl = (
        drift_search_vectorized
        if get_backend() == "vectorized"
        else drift_search_reference
    )
    return impl(class_map, image, seg_x, seg_y, seg_height, dxs, dys)
