"""Evaluation metrics: volumetric Dice, surface Dice at a mm tolerance, PSNR.

Surface Dice (Nikolov et al. 2018, arXiv:1809.04430) is the fraction of the
two masks' boundary voxels within the tolerance of the other boundary: those
of one boundary met by the other dilated (`kernels.dilate`) by every voxel
step no longer than the tolerance.  Each step's length is computed once, as
scipy's Euclidean distance transform computes it, ``sqrt(sum((d_i * s_i)**2))``
summed in axis order, so ties need no recheck.

The cost is one pass over the packed mask (`kernels.dilate` holds 64 voxels
to a word) per step and direction: it grows with the tolerance, not with the
boundary.  Two 128^3 skull masks at 1 mm voxels (perfbench ``mask_eval``,
seed 0, case 0; range of 5 calls, 2-core VM).  The k-d tree column is the
bounded query this replaced, as measured then; the byte column is the
byte-per-voxel dilation that the packed words replaced, measured beside them:

    tolerance        steps  k-d tree     bytes        packed
    1 mm (default)     7    105-113 ms    14-21 ms      7 ms
    2 mm              33    105-114 ms    28-30 ms     8-9 ms
    3 mm             123    102-113 ms    87-95 ms    14-16 ms
    5 mm             515    104-118 ms   346-360 ms   39-40 ms

Two whole-volume distance transforms are the test oracle
(tests/test_metrics.py).  They agree except at ties: the transform can keep
the neighbour whose computed distance is an ulp larger, and so refuse a voxel
at a tolerance that falls between the two values.
"""

import numpy as np

from skullsynth.engine import kernels
from skullsynth.volume_io import SegmentationMask


def _mask_data(m):
    """A `SegmentationMask`'s checked 0/1 uint8 data viewed as bool, without a
    copy; any other mask or array converted to bool."""
    if isinstance(m, SegmentationMask):
        return m.data.view(bool)
    return np.asarray(getattr(m, "data", m)).astype(bool)


def dice(a, b) -> float:
    """2|A∩B| / (|A|+|B|); both empty -> 1.0 by convention."""
    a = _mask_data(a)
    b = _mask_data(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (na + nb)


def _surface(mask):
    # boundary voxels: the mask minus its radius-1 cube erosion (outside = background)
    offs = kernels.structuring_offsets("cube", 1)
    return mask & ~kernels.erode(mask, offs).view(bool)


def _lengths(steps, spacing):
    """mm lengths of voxel steps (..., ndim), in the distance transform's arithmetic."""
    return np.sqrt(sum((steps[..., axis] * s) ** 2 for axis, s in enumerate(spacing)))


def _steps(tol_mm, spacing, shape):
    """The voxel steps no longer than tol_mm, as an (n, ndim) array.  A step
    of k voxels along an axis can compute below k * s (3 * 0.7 does), so each
    axis reaches one voxel past tol_mm / s; no step reaches past the volume."""
    reach = [int(min(tol_mm / s + 1, n - 1)) for s, n in zip(spacing, shape)]
    steps = np.indices([2 * r + 1 for r in reach]).reshape(len(shape), -1).T - reach
    return steps[_lengths(steps, spacing) <= tol_mm]


def surface_dice(a, b, tol_mm: float, spacing=(1.0, 1.0, 1.0)) -> float:
    """Fraction of boundary voxels lying within tol_mm of the other boundary (inclusive)."""
    if not tol_mm >= 0:
        raise ValueError("tolerance must be >= 0")
    a = _mask_data(a)
    b = _mask_data(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    sa = _surface(a)
    sb = _surface(b)
    na = int(np.count_nonzero(sa))
    nb = int(np.count_nonzero(sb))
    if na + nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    spacing = tuple(float(s) for s in spacing)
    if _lengths(np.subtract(a.shape, 1), spacing) <= tol_mm:
        return 1.0  # the tolerance spans the volume's diagonal
    steps = _steps(tol_mm, spacing, a.shape)
    ok = np.count_nonzero(sa & kernels.dilate(sb, steps))
    ok += np.count_nonzero(sb & kernels.dilate(sa, steps))
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
