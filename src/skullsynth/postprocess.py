"""Unit-range synthetic CT back to Hounsfield scale, then skull mask extraction.

The chain is histogram matching against a real CT, inclusive HU thresholding,
binary opening, binary closing.  Histogram matching uses mid-rank empirical
CDFs with linear interpolation between reference order statistics, which makes
it deterministic, tie-stable, and monotone, and sends a constant source to the
reference median.
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


def histogram_match(source: Volume, reference: Volume) -> Volume:
    """Monotone quantile mapping of source intensities onto the reference distribution."""
    src = source.data.ravel()
    ref = np.sort(reference.data.ravel().astype(np.float64))
    values, inverse, counts = np.unique(src, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    n = src.size
    # mid-rank CDF: (count_less + count_less_or_equal) / 2n
    q = (cum - counts + cum) / (2.0 * n)
    positions = (np.arange(ref.size) + 0.5) / ref.size
    mapped = np.interp(q, positions, ref)
    out = mapped[inverse].reshape(source.data.shape)
    return Volume(out, source.spacing, HU)


def threshold_hu(v: Volume, t: float) -> SegmentationMask:
    if v.domain != HU:
        raise DomainError(f"threshold_hu needs a HU volume, got {v.domain}")
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
