"""Evaluation metrics: volumetric Dice, surface Dice at a mm tolerance, PSNR."""

import numpy as np
from scipy import ndimage

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
    spacing = tuple(float(s) for s in spacing)
    dist_to_b = ndimage.distance_transform_edt(~sb, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~sa, sampling=spacing)
    ok_a = int((dist_to_b[sa] <= tol_mm).sum())
    ok_b = int((dist_to_a[sb] <= tol_mm).sum())
    return (ok_a + ok_b) / (na + nb)


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
