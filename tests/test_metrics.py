"""Dice, surface Dice, and PSNR against hand-computed cases; surface Dice
also against two whole-volume Euclidean distance transforms."""

import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from skullsynth.metrics import _mask_data, _surface, dice, psnr, surface_dice
from skullsynth.volume_io import SegmentationMask

SPACINGS = [(1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.7, 0.7, 1.2), (1.3, 0.9, 0.6)]


def mask_of(data):
    return SegmentationMask(np.asarray(data, dtype=np.uint8), (1, 1, 1))


def box(shape, sl):
    m = np.zeros(shape, dtype=np.uint8)
    m[sl] = 1
    return m


class TestDice:
    def test_hand_computed_overlap(self):
        a = box((6, 6, 6), np.s_[1:3, 1:3, 1:3])  # 8 voxels
        b = box((6, 6, 6), np.s_[2:4, 1:3, 1:3])  # 8 voxels, 4 shared
        assert dice(a, b) == pytest.approx(2 * 4 / 16)

    def test_identical_and_disjoint(self):
        a = box((5, 5, 5), np.s_[0:2, 0:2, 0:2])
        assert dice(a, a) == 1.0
        assert dice(a, box((5, 5, 5), np.s_[3:5, 3:5, 3:5])) == 0.0

    def test_empty_conventions(self):
        empty = np.zeros((4, 4, 4), dtype=np.uint8)
        assert dice(empty, empty) == 1.0
        assert dice(empty, box((4, 4, 4), np.s_[0:1, 0:1, 0:1])) == 0.0

    def test_accepts_masks_and_arrays(self):
        a = box((4, 4, 4), np.s_[1:3, 1:3, 1:3])
        assert dice(mask_of(a), a) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            dice(np.zeros((3, 3, 3)), np.zeros((3, 3, 4)))

    def test_a_mask_is_read_in_place_with_the_arrays_scores(self, rng):
        a = (rng.random((9, 8, 7)) < 0.4).astype(np.uint8)
        b = (rng.random((9, 8, 7)) < 0.4).astype(np.uint8)
        ma, mb = mask_of(a), mask_of(b)
        got = _mask_data(ma)
        assert got.dtype == bool and np.shares_memory(got, ma.data)
        np.testing.assert_array_equal(got, a.astype(bool))
        assert dice(ma, mb) == dice(a.astype(float), b.astype(float))
        assert surface_dice(ma, mb, 1.5) == surface_dice(a.astype(float), b.astype(float), 1.5)

    def test_symmetry(self, rng):
        a = (rng.random((7, 7, 7)) < 0.4).astype(np.uint8)
        b = (rng.random((7, 7, 7)) < 0.4).astype(np.uint8)
        assert dice(a, b) == dice(b, a)


class TestSurfaceDice:
    def test_identical_masks(self):
        a = box((8, 8, 8), np.s_[2:6, 2:6, 2:6])
        assert surface_dice(a, a, 0.0) == 1.0

    def test_parallel_plates_tolerance_boundary(self):
        # 1-voxel plates 2 mm apart: inside tolerance at 2, outside at 1.9
        a = box((9, 9, 9), np.s_[2:3, :, :])
        b = box((9, 9, 9), np.s_[4:5, :, :])
        assert surface_dice(a, b, 2.0) == 1.0
        assert surface_dice(a, b, 1.9) == 0.0

    def test_spacing_scales_distance(self):
        a = box((9, 5, 5), np.s_[2:3, :, :])
        b = box((9, 5, 5), np.s_[4:5, :, :])
        # same two plates at 0.5 mm z-spacing sit 1 mm apart
        assert surface_dice(a, b, 1.0, spacing=(0.5, 1.0, 1.0)) == 1.0
        assert surface_dice(a, b, 0.9, spacing=(0.5, 1.0, 1.0)) == 0.0

    def test_interior_voxels_do_not_count(self):
        # solid cube vs the same cube with its core removed: boundaries match
        solid = box((9, 9, 9), np.s_[2:7, 2:7, 2:7])
        hollow = solid.copy()
        hollow[3:6, 3:6, 3:6] = 0
        assert surface_dice(solid, solid, 0.0) == 1.0
        # hollow adds an inner boundary the solid lacks; at tol 1 every inner
        # surface voxel is within one voxel of the outer shell
        assert surface_dice(solid, hollow, 1.0) == 1.0

    def test_empty_conventions(self):
        empty = np.zeros((5, 5, 5), dtype=np.uint8)
        a = box((5, 5, 5), np.s_[1:4, 1:4, 1:4])
        assert surface_dice(empty, empty, 1.0) == 1.0
        assert surface_dice(a, empty, 1.0) == 0.0

    def test_partial_overlap_fraction(self):
        # two 1-voxel plates sharing half their extent, tolerance 0:
        # exactly the shared voxels of each boundary match
        a = np.zeros((3, 4, 4), dtype=np.uint8)
        b = np.zeros((3, 4, 4), dtype=np.uint8)
        a[1, :, 0:2] = 1
        b[1, :, 1:3] = 1
        got = surface_dice(a, b, 0.0)
        assert got == pytest.approx(2 * 4 / (8 + 8))

    def test_symmetry(self, rng):
        a = (rng.random((8, 8, 8)) < 0.35).astype(np.uint8)
        b = (rng.random((8, 8, 8)) < 0.35).astype(np.uint8)
        assert surface_dice(a, b, 1.0) == surface_dice(b, a, 1.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            surface_dice(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), -0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            surface_dice(np.ones((3, 3, 3)), np.ones((3, 3, 4)), 1.0)


def edt_surface_dice(a, b, tol_mm, spacing=(1.0, 1.0, 1.0)):
    """Oracle: surface Dice from the distance of every voxel to the other
    boundary, by scipy's Euclidean distance transform over the whole volume."""
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    sa, sb = _surface(a), _surface(b)
    na, nb = int(sa.sum()), int(sb.sum())
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


def agrees(a, b, tol_mm, spacing):
    return surface_dice(a, b, tol_mm, spacing) == edt_surface_dice(a, b, tol_mm, spacing)


def _distance(step, spacing):
    """Length in mm of a voxel step, as the distance transform computes it."""
    sq = (np.asarray(step, dtype=np.float64) * spacing) ** 2
    return float(np.sqrt(sq[0] + sq[1] + sq[2]))


def lattice_distances(spacing, reach):
    """Every distance between two voxels at most `reach` apart per axis."""
    steps = itertools.product(range(reach + 1), repeat=3)
    return sorted({_distance(step, spacing) for step in steps})


def random_pairs(seed, count, max_edge=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(3, max_edge + 1, size=3))
        yield tuple(rng.random(shape) < rng.uniform(0.05, 0.6) for _ in range(2))


class TestSurfaceDiceEqualsDistanceTransform:
    """Exactly the distance-transform value, but where the transform breaks
    a tie towards the farther computed distance."""

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_random_masks(self, spacing):
        tols = (0.0, 0.5, 0.7, 1.0, math.sqrt(2), 1.4, 2.0, 2.1)
        seed = len(SPACINGS) + SPACINGS.index(spacing)
        for i, (a, b) in enumerate(random_pairs(seed, count=12)):
            for tol in tols:
                assert agrees(a, b, tol, spacing), (i, tol)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_tolerance_at_lattice_distances(self, spacing):
        # a tolerance equal to a voxel-to-voxel distance sits exactly on the
        # inclusive edge of the predicate
        tols = lattice_distances(spacing, reach=3)
        if spacing == (1.0, 1.0, 1.0):
            assert {0.0, 1.0, math.sqrt(2), math.sqrt(3), 2.0} <= set(tols)
        if spacing == (0.7, 0.7, 1.2):
            assert 0.7 in tols
        for i, (a, b) in enumerate(random_pairs(SPACINGS.index(spacing), count=6)):
            for tol in tols:
                assert agrees(a, b, tol, spacing), (i, tol)

    def test_neighbours_tied_in_exact_arithmetic(self):
        # at this spacing the steps (1, 2, 0) and (1, 0, 3) are both sqrt(4.93)
        # mm long, but compute an ulp apart; the voxel is within the shorter
        spacing = (1.3, 0.9, 0.6)
        short = _distance((1, 0, 3), spacing)
        assert short < _distance((1, 2, 0), spacing)
        a = box((9, 9, 9), np.s_[4, 5, 2])
        b = a * 0
        b[5, 7, 2] = b[5, 5, 5] = 1
        assert surface_dice(a, b, short, spacing) == 2 / 3
        assert agrees(a, b, short, spacing)

    def test_tie_counts_the_nearer_computed_distance(self):
        # at 0.6 mm the steps (0, 0, 3), (2, 1, 2) and (2, 2, 1) are all 1.8 mm
        # long; only the first computes to the tolerance, the others an ulp
        # above.  The voxel counts, as it is within the tolerance of one
        # neighbour.  The distance transform keeps a (2, *, *) neighbour here
        # and gives 0.25 (scipy 1.17).
        spacing = (0.6, 0.6, 0.6)
        tol = _distance((0, 0, 3), spacing)
        assert tol < _distance((2, 1, 2), spacing) == _distance((2, 2, 1), spacing)
        a = box((11, 5, 15), np.s_[1, 0, 1])
        b = a * 0
        b[1, 0, 4] = b[3, 1, 3] = b[3, 2, 2] = 1
        assert surface_dice(a, b, tol, spacing) == 2 / 4

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_masks_touching_the_border(self, spacing):
        a = box((7, 8, 9), np.s_[0:4, :, 2:9])
        b = box((7, 8, 9), np.s_[2:7, 0:6, :])
        b[6, 7, 8] = 1
        for tol in (0.0, 0.6, 1.0, 1.3, 2.0, 3.0):
            assert agrees(a, b, tol, spacing), tol

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_one_voxel_masks(self, spacing):
        a = box((6, 6, 6), np.s_[1, 2, 3])
        for where in (np.s_[1, 2, 3], np.s_[2, 2, 3], np.s_[2, 3, 4], np.s_[5, 5, 5], np.s_[0, 0, 0]):
            b = box((6, 6, 6), where)
            for tol in lattice_distances(spacing, reach=3):
                assert agrees(a, b, tol, spacing), (where, tol)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_tolerance_beyond_the_volume_diagonal(self, spacing):
        a = box((5, 6, 7), np.s_[0, 0, 0])
        b = box((5, 6, 7), np.s_[4, 5, 6])
        diagonal = float(np.linalg.norm(np.asarray((5, 6, 7)) * spacing))
        for tol in (diagonal, float("inf"), 1e9):
            assert surface_dice(a, b, tol, spacing) == 1.0
            assert agrees(a, b, tol, spacing)


class TestPSNR:
    def test_constant_offset_frozen_value(self):
        a = np.zeros((4, 4, 4))
        b = np.full((4, 4, 4), 0.1)
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0)

    def test_peak_shifts_by_constant(self):
        a = np.zeros((4, 4, 4))
        b = np.full((4, 4, 4), 0.1)
        assert psnr(a, b, peak=2.0) == pytest.approx(20.0 + 20.0 * np.log10(2.0))

    def test_identical_is_infinite(self, rng):
        a = rng.random((5, 5, 5))
        assert psnr(a, a.copy()) == float("inf")

    def test_symmetry_and_shapes(self, rng):
        a, b = rng.random((4, 4, 4)), rng.random((4, 4, 4))
        assert psnr(a, b) == psnr(b, a)
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(a, rng.random((4, 4, 5)))

    def test_lower_noise_means_higher_psnr(self, rng):
        a = rng.random((6, 6, 6))
        assert psnr(a, a + 0.01) > psnr(a, a + 0.1)
