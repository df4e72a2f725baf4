"""Training-time augmentations for unit-range volumes.

Stages apply in a fixed order: flips, affine warp, ghosting, Gaussian blur,
gamma contrast.  Each is switched on or off; the ranges the stages draw from
are fixed module constants.  Every stage preserves the [0,1] range (by
convexity or an explicit clip) and the volume shape.  A config with
everything disabled is the identity.  All randomness comes from the seed
passed per call.
"""

from dataclasses import dataclass

import numpy as np

from skullsynth.volume_io import UNIT, Volume, require_domain

_ROT_DEG = 10.0  # per-axis rotation, degrees either way
_SCALE = (0.9, 1.1)
_SHEAR = 0.05
_GHOST_AMP = 0.1  # additive shifted-copy amplitude
_BLUR_SIGMA = (0.3, 1.2)  # voxels
_GAMMA = (0.7, 1.4)


@dataclass
class AugmentationConfig:
    flip: bool = False
    affine: bool = False
    ghost: bool = False
    blur: bool = False
    gamma: bool = False

    def enabled(self):
        return self.flip or self.affine or self.ghost or self.blur or self.gamma


def _rotation(rng):
    a, b, c = np.deg2rad(rng.uniform(-_ROT_DEG, _ROT_DEG, size=3))
    rz = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    rx = np.array([[np.cos(c), -np.sin(c), 0], [np.sin(c), np.cos(c), 0], [0, 0, 1]])
    return rz @ ry @ rx


def _shift_zero_fill(data, axis, offset):
    """`data` shifted by `offset` voxels along `axis`, zeros shifted in."""
    k = abs(offset)
    padded = np.pad(data, [(k, k) if a == axis else (0, 0) for a in range(3)])
    start = k - offset
    return padded[(slice(None),) * axis + (slice(start, start + data.shape[axis]),)]


def augment(v: Volume, cfg: AugmentationConfig, seed) -> Volume:
    require_domain(v, UNIT, "augment")
    if not cfg.enabled():
        return Volume(v.data.copy(), v.spacing, v.domain)
    # imported here: scipy.ndimage adds about 20 MB of RSS and 0.4 s to every
    # CLI process, and only augmenting runs need it
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    data = v.data.astype(np.float64)

    if cfg.flip:
        for axis in range(3):
            if rng.random() < 0.5:
                data = np.flip(data, axis=axis)
        data = np.ascontiguousarray(data)

    if cfg.affine:
        mat = _rotation(rng)
        mat = mat * rng.uniform(*_SCALE)
        shear = np.eye(3) + rng.uniform(-_SHEAR, _SHEAR, size=(3, 3)) * (1 - np.eye(3))
        mat = mat @ shear
        center = (np.array(data.shape) - 1) / 2.0
        offset = center - mat @ center
        data = ndimage.affine_transform(data, mat, offset=offset, order=1, mode="nearest")

    if cfg.ghost:
        axis = int(rng.integers(0, 3))
        max_shift = max(1, data.shape[axis] // 8)
        shift = int(rng.integers(1, max_shift + 1)) * (1 if rng.random() < 0.5 else -1)
        amp = rng.uniform(0.0, _GHOST_AMP)
        data = np.clip(data + amp * _shift_zero_fill(data, axis, shift), 0.0, 1.0)

    if cfg.blur:
        sigma = rng.uniform(*_BLUR_SIGMA)
        data = ndimage.gaussian_filter(data, sigma=sigma, mode="nearest")

    if cfg.gamma:
        g = rng.uniform(*_GAMMA)
        data = np.clip(data, 0.0, 1.0) ** g

    return Volume(np.clip(data, 0.0, 1.0), v.spacing, UNIT)
