"""Evaluation metrics: volumetric Dice, surface Dice at a mm tolerance, PSNR.

Surface Dice (Nikolov et al. 2018, arXiv:1809.04430) is the fraction of the
two masks' boundary voxels that lie within the tolerance of the other mask's
boundary.  Only boundary voxels and distances up to the tolerance matter, so
no distance map of the volume is built.  A voxel on both boundaries is 0 mm
from the other one.  For each other voxel, a k-d tree over the other
boundary's voxel positions in mm (Bentley 1975) returns its nearest neighbour
no farther than just above the tolerance.  That neighbour's distance is
recomputed from integer index differences as scipy's Euclidean distance
transform computes it, ``sqrt(sum((d_i * s_i)**2))`` summed in axis order,
and compared with the tolerance.  Neighbours at the same exact distance can
compute an ulp apart, so a voxel the recheck refuses is checked against every
neighbour in reach.  The cost grows with the boundary, not with the volume or
the tolerance.

Two whole-volume distance transforms are the test oracle
(tests/test_metrics.py).  They agree except at such ties: the transform can
keep the neighbour whose computed distance is an ulp larger, and so refuse a
voxel at a tolerance that falls between the two values.
"""

import numpy as np

from skullsynth.engine import kernels


def _mask_data(m):
    return np.asarray(getattr(m, "data", m)).astype(bool)


def dice(a, b) -> float:
    """2|A∩B| / (|A|+|B|); both empty -> 1.0 by convention."""
    a = _mask_data(a)
    b = _mask_data(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = int(a.sum())
    nb = int(b.sum())
    if na + nb == 0:
        return 1.0
    inter = int((a & b).sum())
    return 2.0 * inter / (na + nb)


def _surface(mask):
    # boundary voxels: the mask minus its radius-1 cube erosion (outside = background)
    offs = kernels.structuring_offsets("cube", 1)
    eroded = kernels.erode(mask.astype(np.uint8), offs).astype(bool)
    return mask & ~eroded


def _distances(src, dst, spacing):
    """mm distances from voxels `src` to voxels `dst` (index arrays of the
    same shape), in the distance transform's arithmetic."""
    step = (dst - src) * spacing
    step *= step
    squared = step[..., 0].copy()
    for axis in range(1, step.shape[-1]):
        squared += step[..., axis]
    return np.sqrt(squared)


def _within(src, dst, tol_mm, spacing) -> int:
    """How many of the voxels `src` (an (n, ndim) index array) lie within
    tol_mm of some voxel of `dst`, at voxel size `spacing` (mm per axis)."""
    if not len(src):
        return 0
    # imported here: scipy.spatial adds about 10 MB of RSS and 0.1 s to every
    # process that imports this module, and most never score a mask
    from scipy.spatial import cKDTree

    tree = cKDTree(dst * spacing, balanced_tree=False, compact_nodes=False)
    # the tree's distances round differently from `_distances`; the margin
    # only lets it return a neighbour that the recheck may still refuse
    reach = tol_mm + 1e-6
    _, nearest = tree.query(src * spacing, k=1, distance_upper_bound=reach)
    found = np.flatnonzero(nearest < len(dst))
    close = _distances(src[found], dst[nearest[found]], spacing) <= tol_mm
    ok = int(close.sum())
    # the tree may have returned the larger of two tied neighbours
    tied = found[~close]
    if len(tied):
        balls = tree.query_ball_point(src[tied] * spacing, reach)
        owner = np.repeat(np.arange(len(tied)), [len(ball) for ball in balls])
        hits = _distances(src[tied[owner]], dst[np.concatenate(balls)], spacing) <= tol_mm
        ok += len(np.unique(owner[hits]))
    return ok


def surface_dice(a, b, tol_mm: float, spacing=(1.0, 1.0, 1.0)) -> float:
    """Fraction of boundary voxels lying within tol_mm of the other boundary (inclusive)."""
    if tol_mm < 0:
        raise ValueError("tolerance must be >= 0")
    a = _mask_data(a)
    b = _mask_data(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    sa = _surface(a)
    sb = _surface(b)
    na = int(sa.sum())
    nb = int(sb.sum())
    if na + nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    spacing = np.asarray(spacing, dtype=np.float64)
    # a voxel on both boundaries is 0 mm from the other one
    ok = 2 * int((sa & sb).sum())
    ok += _within(np.argwhere(sa & ~sb), np.argwhere(sb), tol_mm, spacing)
    ok += _within(np.argwhere(sb & ~sa), np.argwhere(sa), tol_mm, spacing)
    return ok / (na + nb)


def psnr(a, b, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE) in dB; identical inputs return +inf."""
    a = np.asarray(getattr(a, "data", a), dtype=np.float64)
    b = np.asarray(getattr(b, "data", b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)
