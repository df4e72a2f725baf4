"""Augmentation stages: identity when disabled, range/shape preservation,
seed determinism, and per-stage behavioural checks."""

import numpy as np
import pytest

from skullsynth.augment import AugmentationConfig, augment
from skullsynth.volume_io import HU, UNIT, Volume

ALL_ON = AugmentationConfig(flip=True, affine=True, ghost=True, blur=True, gamma=True)


def unit_vol(rng, shape=(12, 10, 11)):
    return Volume(rng.random(shape), (1, 1, 1), UNIT)


class TestContract:
    def test_disabled_config_is_identity(self, rng):
        v = unit_vol(rng)
        out = augment(v, AugmentationConfig(), seed=3)
        np.testing.assert_array_equal(out.data, v.data)
        assert out.data is not v.data  # defensive copy

    def test_rejects_non_unit_domain(self, rng):
        v = Volume(rng.normal(size=(4, 4, 4)) * 1000, (1, 1, 1), HU)
        with pytest.raises(ValueError, match="UNIT"):
            augment(v, ALL_ON, seed=0)

    def test_same_seed_reproduces(self, rng):
        v = unit_vol(rng)
        a = augment(v, ALL_ON, seed=11)
        b = augment(v, ALL_ON, seed=11)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self, rng):
        v = unit_vol(rng)
        a = augment(v, ALL_ON, seed=1)
        b = augment(v, ALL_ON, seed=2)
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize(
        "cfg",
        [
            AugmentationConfig(flip=True),
            AugmentationConfig(affine=True),
            AugmentationConfig(ghost=True),
            AugmentationConfig(blur=True),
            AugmentationConfig(gamma=True),
            ALL_ON,
        ],
    )
    def test_every_stage_preserves_shape_and_range(self, cfg, rng):
        v = unit_vol(rng)
        for seed in range(8):
            out = augment(v, cfg, seed=seed)
            assert out.data.shape == v.data.shape
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
            assert out.domain == UNIT

    def test_metadata_preserved(self, rng):
        v = Volume(rng.random((6, 6, 6)), (0.5, 1.0, 2.0), UNIT)
        out = augment(v, ALL_ON, seed=0)
        assert out.spacing == v.spacing


class TestStages:
    def test_flip_permutes_without_changing_values(self, rng):
        v = unit_vol(rng)
        for seed in range(6):
            out = augment(v, AugmentationConfig(flip=True), seed=seed)
            np.testing.assert_array_equal(np.sort(out.data, axis=None), np.sort(v.data, axis=None))
            axes_flips = [
                np.flip(v.data, ax) for ax in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
            ]
            assert any(np.array_equal(out.data, f) for f in axes_flips)

    def test_affine_stays_within_input_hull(self, rng):
        # order-1 interpolation with edge clamping only forms convex combinations
        v = unit_vol(rng)
        out = augment(v, AugmentationConfig(affine=True), seed=4)
        assert out.data.min() >= v.data.min() - 1e-12
        assert out.data.max() <= v.data.max() + 1e-12
        assert not np.array_equal(out.data, v.data)

    def test_ghost_adds_bounded_shifted_copy(self, rng):
        v = unit_vol(rng)
        out = augment(v, AugmentationConfig(ghost=True), seed=2)
        # additive and clipped: never darkens, bounded by amp times a shifted copy
        assert np.all(out.data >= v.data - 1e-12)
        assert np.all(out.data <= np.clip(v.data + 0.1, 0, 1) + 1e-12)

    def test_blur_reduces_variance(self, rng):
        v = unit_vol(rng, shape=(16, 16, 16))
        out = augment(v, AugmentationConfig(blur=True), seed=5)
        assert out.data.var() < v.data.var()

    def test_gamma_preserves_ordering_and_endpoints(self, rng):
        data = rng.random((8, 8, 8))
        data.flat[0], data.flat[1] = 0.0, 1.0
        v = Volume(data, (1, 1, 1), UNIT)
        out = augment(v, AugmentationConfig(gamma=True), seed=9)
        order_in = np.argsort(data, axis=None)
        mapped = out.data.ravel()[order_in]
        assert np.all(np.diff(mapped) >= 0)
        assert out.data.flat[0] == 0.0 and out.data.flat[1] == 1.0
