"""Unit-range synthetic CT back to Hounsfield scale, then skull mask extraction.

The chain is histogram matching against a real CT, inclusive HU thresholding,
binary opening, binary closing.  Histogram matching uses mid-rank empirical
CDFs with linear interpolation between reference order statistics, which makes
it deterministic, tie-stable, and monotone, and sends a constant source to the
reference median.

The source is ranked by one in-place sort of int64 keys, not an argsort: each
key holds a voxel's float32 bits, made order-preserving, in its high word and
the voxel's index in its low word, so the sorted low words are the sorting
permutation.  Runs of equal values are found by comparing floats, so -0.0 and
+0.0 are one value, as in ``np.unique``.  Each run's matched value is
scattered back through the permutation.  The index word limits a source to
2**32 voxels.
"""

from dataclasses import dataclass

import numpy as np

from skullsynth.engine import kernels
from skullsynth.volume_io import HU, DomainError, SegmentationMask, Volume


@dataclass
class SegmentationParams:
    bone_threshold_hu: float = 200.0
    opening_radius: int = 1
    closing_radius: int = 1
    structuring_element: str = "cube"  # or "ball"

    def __post_init__(self):
        if self.opening_radius < 0 or self.closing_radius < 0:
            raise ValueError("morphology radii must be >= 0")
        if self.structuring_element not in ("cube", "ball"):
            raise ValueError(f"unknown structuring element {self.structuring_element!r}")


def require_hu(v: Volume, what: str):
    """Refuse `v`, the volume `what` names, unless it is in HU."""
    if v.domain != HU:
        raise DomainError(f"{what} needs a HU volume, got {v.domain}")


def histogram_match(source: Volume, reference: Volume) -> Volume:
    """Monotone quantile mapping of source intensities onto the distribution
    of `reference`, a HU volume; the result is HU."""
    require_hu(reference, "histogram_match's reference")
    src = source.data.ravel()
    n = src.size
    if n > 2**32:
        raise ValueError(f"histogram_match sorts at most 2**32 voxels, got {n}")
    order = _sort_order(src)
    # each whole-volume temporary is dropped once read (the `del`s), which
    # takes the peak on distinct values from 16 to 14 times the source's bytes
    vals = src[order]
    # runs of equal values, compared as floats so -0.0 and +0.0 are one value
    edges = np.ones(n + 1, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=edges[1:-1])
    del vals
    bounds = np.flatnonzero(edges)  # each run's first sorted index, then n
    del edges
    # mid-rank CDF: (count_less + count_less_or_equal) / 2n
    q = (bounds[:-1] + bounds[1:]) / (2.0 * n)
    ref = np.sort(reference.data.ravel().astype(np.float64))
    positions = (np.arange(ref.size) + 0.5) / ref.size
    mapped = np.interp(q, positions, ref).astype(np.float32)
    del q, ref, positions
    out = np.empty(n, dtype=np.float32)
    out[order] = np.repeat(mapped, np.diff(bounds))
    return Volume(out.reshape(source.data.shape), source.spacing, HU)


def _sort_order(x):
    """The permutation that sorts float32 `x` of at most 2**32 entries: one
    in-place sort of int64 keys, each entry's bits made order-preserving in
    the high word above its index in the low word."""
    keys = x.view(np.int32).astype(np.int64)
    keys ^= (keys >> 31) & 0x7FFFFFFF  # negative floats count down
    keys <<= 32
    keys |= np.arange(x.size, dtype=np.int64)
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys


def threshold_hu(v: Volume, t: float) -> SegmentationMask:
    require_hu(v, "threshold_hu")
    return SegmentationMask((v.data >= t).astype(np.uint8), v.spacing)


def _offsets(params, radius):
    return kernels.structuring_offsets(params.structuring_element, radius)


def binary_open(m: SegmentationMask, params: SegmentationParams) -> SegmentationMask:
    offs = _offsets(params, params.opening_radius)
    return SegmentationMask(kernels.dilate(kernels.erode(m.data, offs), offs), m.spacing)


def binary_close(m: SegmentationMask, params: SegmentationParams) -> SegmentationMask:
    offs = _offsets(params, params.closing_radius)
    return SegmentationMask(kernels.erode(kernels.dilate(m.data, offs), offs), m.spacing)


def segment_from_matched(matched_ct: Volume, params: SegmentationParams) -> SegmentationMask:
    """threshold_hu -> binary_open -> binary_close on an already-matched volume."""
    mask = threshold_hu(matched_ct, params.bone_threshold_hu)
    mask = binary_open(mask, params)
    return binary_close(mask, params)
