"""Shared fixtures: a seeded generator, phantom training sets and a unit volume."""

import numpy as np
import pytest

from skullsynth import phantom, seeding
from skullsynth.volume_io import UNIT, Volume, hounsfield_floor, minmax_normalize


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def phantom_pair_set(seed, count, shape, noise_mr=0.0, noise_ct=0.0, defect_radius=0.0):
    """Jittered phantom cases preprocessed to the training domains.

    Returns (unit MR list, unit CT list, truth mask list, raw HU CT list).
    """
    mrs, cts, masks, raw_cts = [], [], [], []
    for i in range(count):
        j = seeding.stream(seed, "phantom.case", i)
        semi = tuple(float(f * n) for f, n in zip(j.uniform(0.32, 0.42, 3), (shape,) * 3))
        spec = phantom.PhantomSpec(
            shape=(shape,) * 3,
            semi_axes=semi,
            thickness=float(j.uniform(1.6, 2.6)),
            noise_sigma_mr=noise_mr,
            noise_sigma_ct=noise_ct,
            defect_radius=defect_radius,
            seed=seed + i,
        )
        mr, ct, mask = phantom.make_phantom(spec)
        mrs.append(minmax_normalize(mr))
        cts.append(minmax_normalize(hounsfield_floor(ct)))
        masks.append(mask)
        raw_cts.append(ct)
    return mrs, cts, masks, raw_cts


@pytest.fixture
def unit_volume(rng):
    return Volume(rng.random((12, 10, 14), dtype=np.float32), (1.0, 1.0, 1.0), UNIT)
