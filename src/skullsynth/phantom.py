"""Deterministic synthetic skull fixtures: paired pseudo-MR, pseudo-CT, truth mask.

The skull is an ellipsoidal shell (outer ellipsoid minus a concentric inner
one); the brain is the interior ellipsoid.  Intensities straddle the bone
threshold with a wide margin so segmentation acceptance never hinges on
threshold tuning: CT shell ~1400 HU, interior ~30 HU, exterior -1000 HU.
The MR-like view inverts the contrast (dark shell, bright brain).

An optional spherical defect, centred on the outer wall where the first
axis enters the shell, removes shell voxels from all three outputs
consistently; removed voxels take the interior (soft-tissue) intensity.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from skullsynth.volume_io import HU, UNIT, SegmentationMask, Volume

MR_EXTERIOR = 0.15
MR_SHELL = 0.05
MR_BRAIN = 0.85
CT_EXTERIOR = -1000.0
CT_BRAIN = 30.0
CT_SHELL = 1400.0


@dataclass
class PhantomSpec:
    shape: tuple = (32, 32, 32)
    semi_axes: Optional[tuple] = None  # defaults to 0.38 * shape
    thickness: float = 2.0  # shell thickness in voxels
    noise_sigma_mr: float = 0.0  # unit-scale sigma
    noise_sigma_ct: float = 0.0  # HU-scale sigma
    defect_radius: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.shape) != 3 or any(n < 1 for n in self.shape):
            raise ValueError(f"shape must be 3 sizes >= 1, got {tuple(self.shape)}")
        if not all(v >= 0 for v in (self.noise_sigma_mr, self.noise_sigma_ct,
                                    self.defect_radius)):
            raise ValueError("noise_sigma_mr, noise_sigma_ct and defect_radius must be >= 0")
        for name in ("noise_sigma_mr", "noise_sigma_ct", "defect_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def _ellipsoid(axes, center, semi_axes):
    return sum(((a - c) / s) ** 2 for a, c, s in zip(axes, center, semi_axes)) <= 1.0


def _regions(spec):
    """The shell and the soft tissue (brain plus defect) as boolean volumes,
    centred in the grid and built from its broadcast z, y and x axes."""
    shape = tuple(int(n) for n in spec.shape)
    center = tuple((n - 1) / 2.0 for n in shape)
    semi = spec.semi_axes or tuple(0.38 * n for n in shape)
    if any(c - s < -0.5 or c + s > n - 0.5 for c, s, n in zip(center, semi, shape)):
        raise ValueError(f"shell exceeds bounds: center {center}, semi-axes {semi}, shape {shape}")
    axes = np.ix_(*(np.arange(n, dtype=np.float64) for n in shape))
    inner_semi = tuple(max(s - spec.thickness, 0.5) for s in semi)
    soft = _ellipsoid(axes, center, inner_semi)
    shell = _ellipsoid(axes, center, semi) & ~soft
    if spec.defect_radius > 0:
        dc = (center[0] - semi[0], center[1], center[2])
        sphere = sum((a - c) ** 2 for a, c in zip(axes, dc)) <= spec.defect_radius**2
        soft |= shell & sphere
        shell &= ~sphere
    return shell, soft


def make_phantom(spec: PhantomSpec):
    """Build the (mr_like, ct_like, mask) triplet at unit spacing; deterministic per seed."""
    shell, soft = _regions(spec)
    shape = shell.shape
    spacing = (1.0, 1.0, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence((int(spec.seed), 0x70AA)))
    # one float64 volume at a time, noised in place: the MR, whose noise is
    # drawn first, becomes its float32 Volume before the CT is built.
    # A defect exposes soft tissue, not air.
    mr = np.select([shell, soft], [MR_SHELL, MR_BRAIN], MR_EXTERIOR)
    if spec.noise_sigma_mr > 0:
        mr += rng.normal(0.0, spec.noise_sigma_mr, shape)
        np.clip(mr, 0.0, 1.0, out=mr)
    mr_vol = Volume(mr, spacing, UNIT)
    del mr
    ct = np.select([shell, soft], [CT_SHELL, CT_BRAIN], CT_EXTERIOR)
    if spec.noise_sigma_ct > 0:
        ct += rng.normal(0.0, spec.noise_sigma_ct, shape)
    ct_vol = Volume(ct, spacing, HU)
    mask = SegmentationMask(shell.astype(np.uint8), spacing)
    return mr_vol, ct_vol, mask
