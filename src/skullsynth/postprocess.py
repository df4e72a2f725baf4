"""Unit-range synthetic CT back to Hounsfield scale, then skull mask extraction.

The chain is histogram matching against a real CT, inclusive HU thresholding,
binary opening, binary closing.  Matching's reference and the thresholded
volume must be HU; `volume_io.require_domain` refuses any other domain with a
`DomainError` that names the stage.  Histogram matching uses mid-rank empirical
CDFs with linear interpolation between reference order statistics, which makes
it deterministic, tie-stable, and monotone, and sends a constant source to the
reference median.

The voxels equal to the source's minimum are its first run of equal values,
and a run's matched value needs only its bounds, so they are placed without a
sort.  That run always holds at least one voxel.  It is most of the volume
when the source has a floor: a CT that ``preprocess`` floors and scales has
its air at exactly 0.0, and perfbench's ``mask_eval`` matches such sources.
The translated and super-resolved CTs that ``infer`` matches have one voxel
at their minimum, so there the split saves nothing and adds a mask, a
position array and a gather.

The other voxels are ranked by one in-place sort of int64 keys, not an
argsort: each key holds a voxel's float32 bits, made order-preserving, in its
high word and the voxel's position in the volume in its low word, so the
sorted low words are the voxels in value order.  Runs of equal values are
found by comparing floats, so -0.0 and +0.0 are one value, as in
``np.unique``.  Each run's matched value is scattered back through those
positions.  The position word limits a source to 2**32 voxels.
"""

from dataclasses import dataclass

import numpy as np

from skullsynth.engine import kernels
from skullsynth.volume_io import HU, SegmentationMask, Volume, require_domain


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
    """Monotone quantile mapping of source intensities onto the distribution
    of `reference`, a HU volume; the result is HU."""
    require_domain(reference, HU, "histogram_match's reference")
    src = source.data.ravel()
    n = src.size
    if n > 2**32:
        raise ValueError(f"histogram_match sorts at most 2**32 voxels, got {n}")
    # the first run is the voxels at the minimum, compared as floats so -0.0
    # and +0.0 are one value; only the rest are sorted, by their positions
    rest = np.flatnonzero(src != src.min())
    first = n - rest.size
    order = _sort_order(src[rest], rest)
    del rest
    # each whole-volume temporary is dropped once read (the `del`s), which
    # takes the peak on distinct values from 16 to 14 times the source's bytes
    vals = src[order]
    # each run's first sorted index, then n: edge 0 is the first run's, and
    # edge i > 0 stands for sorted index first + i - 1, the rest's runs
    edges = np.ones(order.size + 2, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=edges[2:-1])
    del vals
    bounds = np.flatnonzero(edges)
    bounds[1:] += first - 1
    del edges
    # mid-rank CDF: (count_less + count_less_or_equal) / 2n, the sum exact
    # in float64 and divided in place
    q = np.add(bounds[:-1], bounds[1:], dtype=np.float64)
    q /= 2.0 * n
    ref = reference.data.ravel().astype(np.float64)
    ref.sort()  # in place: the cast is already a copy
    # a float64 arange holds the same integers, and + and / reuse its buffer
    positions = (np.arange(ref.size, dtype=np.float64) + 0.5) / ref.size
    mapped = np.interp(q, positions, ref).astype(np.float32)
    del q, ref, positions
    out = np.full(n, mapped[0], dtype=np.float32)
    out[order] = np.repeat(mapped[1:], np.diff(bounds[1:]))
    return Volume(out.reshape(source.data.shape), source.spacing, HU)


def _sort_order(x, index):
    """`index`, of the same size as float32 `x` and below 2**32, ordered by
    `x`: one in-place sort of int64 keys, each entry's bits made
    order-preserving in the high word above its index in the low word."""
    keys = x.view(np.int32).astype(np.int64)
    keys ^= (keys >> 31) & 0x7FFFFFFF  # negative floats count down
    keys <<= 32
    keys |= index
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys


def threshold_hu(v: Volume, t: float) -> SegmentationMask:
    require_domain(v, HU, "threshold_hu")
    return SegmentationMask((v.data >= t).view(np.uint8), v.spacing)


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
