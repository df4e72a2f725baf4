"""Phantom fixtures: geometry, intensity contract, defects, determinism."""

import tracemalloc

import numpy as np
import pytest

from skullsynth import phantom
from skullsynth.phantom import PhantomSpec, make_phantom
from skullsynth.postprocess import threshold_hu
from skullsynth.volume_io import HU, UNIT


def sphere_spec(**kw):
    base = dict(shape=(32, 32, 32), semi_axes=(11.0, 11.0, 11.0), thickness=2.5, seed=7)
    base.update(kw)
    return PhantomSpec(**base)


@pytest.mark.parametrize("bad,message", [
    ({"shape": (0, 0, 0)}, "shape must be 3 sizes >= 1"),
    ({"shape": (32, -4, 32)}, "shape must be 3 sizes >= 1"),
    ({"noise_sigma_mr": -0.5}, "must be >= 0"),
    ({"noise_sigma_ct": float("nan")}, "must be >= 0"),
    ({"defect_radius": -1.0}, "must be >= 0"),
], ids=["shape 0", "shape -4", "noise_sigma_mr", "noise_sigma_ct nan", "defect_radius"])
def test_spec_refuses_empty_shapes_and_negative_amounts(bad, message):
    with pytest.raises(ValueError, match=message):
        sphere_spec(**bad)


class TestGeometryAndIntensity:
    def test_domains_and_pairing(self):
        mr, ct, mask = make_phantom(sphere_spec())
        assert mr.domain == UNIT and ct.domain == HU
        assert mr.data.shape == ct.data.shape == mask.data.shape

    def test_mask_equals_thresholded_noisefree_ct(self):
        mr, ct, mask = make_phantom(sphere_spec())
        np.testing.assert_array_equal(threshold_hu(ct, 200.0).data, mask.data)

    def test_intensities_straddle_threshold(self):
        _, ct, mask = make_phantom(sphere_spec())
        shell = mask.data.astype(bool)
        assert ct.data[shell].min() > 200.0
        assert ct.data[~shell].max() < 200.0

    def test_mr_contrast_inverts(self):
        mr, _, mask = make_phantom(sphere_spec())
        shell = mask.data.astype(bool)
        brain = (mr.data > 0.5) & ~shell
        assert brain.any()
        assert mr.data[shell].max() < mr.data[brain].min()

    def test_shell_thickness_controls_mask_size(self):
        _, _, thin = make_phantom(sphere_spec(thickness=1.5))
        _, _, thick = make_phantom(sphere_spec(thickness=3.5))
        assert thick.data.sum() > thin.data.sum() > 0

    def test_shell_must_fit(self):
        with pytest.raises(ValueError, match="exceeds bounds"):
            make_phantom(sphere_spec(semi_axes=(20.0, 11.0, 11.0)))

    def test_same_seed_bitwise_identical(self):
        a = make_phantom(sphere_spec(noise_sigma_mr=0.05, noise_sigma_ct=30.0))
        b = make_phantom(sphere_spec(noise_sigma_mr=0.05, noise_sigma_ct=30.0))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)

    def test_different_seeds_differ(self):
        a = make_phantom(sphere_spec(noise_sigma_mr=0.05, seed=1))
        b = make_phantom(sphere_spec(noise_sigma_mr=0.05, seed=2))
        assert not np.array_equal(a[0].data, b[0].data)

    def test_noise_respects_unit_range(self):
        mr, _, _ = make_phantom(sphere_spec(noise_sigma_mr=0.5))
        assert mr.data.min() >= 0.0 and mr.data.max() <= 1.0

    def test_peak_memory_holds_one_float64_volume_at_a_time(self):
        # 64^3 with both noises: each float64 volume is noised in place and
        # the MR is float32 before the CT is built, so the peak is 5.5
        # float32 volumes; building both side by side peaked at 8.5
        spec = PhantomSpec(shape=(64, 64, 64), noise_sigma_mr=0.05, noise_sigma_ct=30.0)
        make_phantom(PhantomSpec(shape=(4, 4, 4)))  # the first call's imports are not counted
        tracemalloc.start()
        try:
            make_phantom(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        volume = np.dtype(np.float32).itemsize * 64**3
        assert peak <= 6 * volume, peak / volume


class TestDefects:
    def test_zero_radius_identical_to_clean(self):
        clean = make_phantom(sphere_spec())
        punched = make_phantom(sphere_spec(defect_radius=0.0))
        for x, y in zip(clean, punched):
            np.testing.assert_array_equal(x.data, y.data)

    def test_defect_mask_is_set_difference(self):
        spec = sphere_spec(defect_radius=5.0)
        _, _, clean_mask = make_phantom(sphere_spec())
        _, _, defect_mask = make_phantom(spec)
        removed = clean_mask.data.astype(bool) & ~defect_mask.data.astype(bool)
        assert removed.any()
        # nothing outside the defect sphere may change
        center = (
            (spec.shape[0] - 1) / 2.0 - spec.semi_axes[0],
            (spec.shape[1] - 1) / 2.0,
            (spec.shape[2] - 1) / 2.0,
        )
        zz, yy, xx = np.meshgrid(*(np.arange(n, dtype=float) for n in spec.shape), indexing="ij")
        sphere = (
            (zz - center[0]) ** 2 + (yy - center[1]) ** 2 + (xx - center[2]) ** 2
        ) <= spec.defect_radius**2
        assert not (removed & ~sphere).any()

    def test_defect_exposes_soft_tissue_in_all_outputs(self):
        spec = sphere_spec(defect_radius=5.0)
        mr_c, ct_c, mask_c = make_phantom(sphere_spec())
        mr_d, ct_d, mask_d = make_phantom(spec)
        removed = mask_c.data.astype(bool) & ~mask_d.data.astype(bool)
        assert np.all(ct_d.data[removed] == phantom.CT_BRAIN)
        assert np.all(mr_d.data[removed] == phantom.MR_BRAIN)

    def test_defect_covering_shell_empties_mask(self):
        # the defect sits on the shell wall; 40 voxels reach past the far side
        _, _, mask = make_phantom(sphere_spec(defect_radius=40.0))
        assert mask.data.sum() == 0

    def test_removed_fraction_matches_analytic_estimate(self):
        # spherical defect centred on the shell wall: voxel count of
        # sphere-and-shell overlap vs a dense Monte-Carlo estimate
        spec = PhantomSpec(
            shape=(64, 64, 64),
            semi_axes=(24.0, 24.0, 24.0),
            thickness=3.0,
            defect_radius=8.0,
            seed=3,
        )
        _, _, clean = make_phantom(PhantomSpec(**{**spec.__dict__, "defect_radius": 0.0}))
        _, _, holed = make_phantom(spec)
        got = int(clean.data.sum() - holed.data.sum())

        rng = np.random.default_rng(0)
        center = tuple((n - 1) / 2.0 for n in spec.shape)
        dc = (center[0] - spec.semi_axes[0], center[1], center[2])
        n_samples = 400_000
        pts = rng.uniform(
            np.array(dc) - spec.defect_radius, np.array(dc) + spec.defect_radius, (n_samples, 3)
        )
        in_sphere = ((pts - dc) ** 2).sum(axis=1) <= spec.defect_radius**2
        r_outer = ((pts - center) ** 2 / np.array(spec.semi_axes) ** 2).sum(axis=1) <= 1.0
        inner = tuple(s - spec.thickness for s in spec.semi_axes)
        r_inner = ((pts - center) ** 2 / np.array(inner) ** 2).sum(axis=1) <= 1.0
        frac = (in_sphere & r_outer & ~r_inner).mean()
        want = frac * (2 * spec.defect_radius) ** 3
        assert got == pytest.approx(want, rel=0.05)
