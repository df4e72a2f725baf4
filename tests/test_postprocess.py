"""Histogram matching, thresholding, morphology, and the full mask chain."""

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st

from skullsynth.engine import kernels
from skullsynth.phantom import PhantomSpec, make_phantom
from skullsynth.postprocess import (
    SegmentationParams,
    binary_close,
    binary_open,
    histogram_match,
    segment_from_matched,
    threshold_hu,
)
from skullsynth.volume_io import (
    ARBITRARY,
    HU,
    UNIT,
    DomainError,
    SegmentationMask,
    Volume,
    hounsfield_floor,
    minmax_normalize,
)


def hu_volume(data, spacing=(1, 1, 1)):
    return Volume(np.asarray(data, dtype=np.float64), spacing, HU)


def unit_volume_of(data):
    return Volume(np.asarray(data, dtype=np.float64), (1, 1, 1), UNIT)


def unique_match(source, reference):
    """Histogram matching through np.unique, the mapping histogram_match keeps:
    the mid-rank CDF interpolated between the reference's order statistics."""
    src = source.data.ravel()
    ref = np.sort(reference.data.ravel().astype(np.float64))
    _, inverse, counts = np.unique(src, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    q = (cum - counts + cum) / (2.0 * src.size)
    positions = (np.arange(ref.size) + 0.5) / ref.size
    return np.interp(q, positions, ref)[inverse].astype(np.float32).reshape(source.data.shape)


MATCH_SOURCES = {
    "tie-heavy integers": lambda rng: rng.integers(-6, 7, size=(9, 10, 11)),
    "-0.0 and +0.0": lambda rng: rng.choice([-0.0, 0.0, -1.5, 2.0], size=(8, 8, 8)),
    "constant": lambda rng: np.full((4, 5, 6), 0.25),
    "one voxel": lambda rng: np.full((1, 1, 1), -3.0),
    "normal noise": lambda rng: rng.normal(size=(16, 17, 18)),
    "background run": lambda rng: np.where(rng.random((16, 17, 18)) < 0.76, 0.0,
                                           rng.random((16, 17, 18))),
    "-0.0 minimum and +0.0": lambda rng: rng.choice([-0.0, 0.0, 0.5, 1.25], size=(8, 8, 8)),
    "one-voxel minimum": lambda rng: rng.permutation(
        np.r_[-1.0, rng.integers(0, 4, size=503)]).reshape(8, 9, 7),
    # a noisy phantom CT floored and scaled as `preprocess` does: its air is
    # one run at exactly 0.0, most of the volume
    "preprocessed phantom CT": lambda rng: minmax_normalize(hounsfield_floor(make_phantom(
        PhantomSpec(shape=(16, 17, 18), noise_sigma_ct=30.0, seed=int(rng.integers(100))))[1]
    )).data,
}


class TestHistogramMatch:
    @pytest.mark.parametrize("name", list(MATCH_SOURCES))
    def test_bitwise_equal_to_unique_formula(self, name, rng):
        src = Volume(MATCH_SOURCES[name](rng), (1, 1, 1))
        ref = hu_volume(rng.normal(scale=400.0, size=(7, 6, 9)))
        got = histogram_match(src, ref).data
        np.testing.assert_array_equal(got.view(np.uint32),
                                      unique_match(src, ref).view(np.uint32))

    def test_peak_memory_on_distinct_values(self, rng):
        # 64^3 distinct values against a 64^3 reference: the keyed sort peaks
        # at 14.0 times the source's bytes, np.unique with its inverse at 18.25
        n = 64**3
        src = Volume((rng.permutation(n) / n).reshape(64, 64, 64), (1, 1, 1), UNIT)
        ref = hu_volume(rng.normal(scale=400.0, size=(64, 64, 64)))
        tracemalloc.start()
        try:
            histogram_match(src, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * src.data.nbytes, peak / src.data.nbytes

    def test_peak_memory_on_a_background_run(self, rng):
        # 64^3 with 76% of its voxels at the minimum, against a 64^3
        # reference: only the rest are sorted, so the peak is 6.2 times the
        # source's bytes; sorting every voxel peaked at 9.0
        shape = (64, 64, 64)
        data = np.where(rng.random(shape) < 0.76, 0.0, rng.random(shape))
        src = Volume(data, (1, 1, 1), UNIT)
        ref = hu_volume(rng.normal(scale=400.0, size=shape))
        tracemalloc.start()
        try:
            histogram_match(src, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * src.data.nbytes, peak / src.data.nbytes

    def test_two_level_source_hand_computed(self):
        # mid-rank quantiles 0.25/0.75 against sorted reference [10,20,30,40]
        # at positions [.125,.375,.625,.875] interpolate to 15 and 35
        src = unit_volume_of([[[0.0, 0.0], [1.0, 1.0]]])
        ref = hu_volume([[[10.0, 40.0], [30.0, 20.0]]])
        out = histogram_match(src, ref)
        np.testing.assert_allclose(out.data, [[[15.0, 15.0], [35.0, 35.0]]])
        assert out.domain == HU

    def test_constant_source_maps_to_reference_median(self):
        src = unit_volume_of(np.full((3, 3, 3), 0.42))
        ref = hu_volume(np.arange(27.0).reshape(3, 3, 3) * 100.0 - 1000.0)
        out = histogram_match(src, ref)
        np.testing.assert_allclose(out.data, np.median(ref.data))

    def test_ties_map_together(self, rng):
        src_data = rng.choice([0.1, 0.5, 0.9], size=(4, 4, 4))
        out = histogram_match(unit_volume_of(src_data), hu_volume(rng.normal(size=(4, 4, 4))))
        for v in (0.1, 0.5, 0.9):
            region = out.data[src_data == v]
            if region.size:
                assert np.all(region == region.flat[0])

    def test_monotone_in_source_value(self, rng):
        src_data = rng.random((6, 6, 6))
        out = histogram_match(unit_volume_of(src_data), hu_volume(rng.normal(size=(5, 5, 5))))
        order = np.argsort(src_data.ravel())
        mapped = out.data.ravel()[order]
        assert np.all(np.diff(mapped) >= 0)

    def test_output_range_inside_reference_range(self, rng):
        ref = hu_volume(rng.normal(scale=300.0, size=(6, 6, 6)))
        out = histogram_match(unit_volume_of(rng.random((7, 7, 7))), ref)
        assert out.data.min() >= ref.data.min()
        assert out.data.max() <= ref.data.max()

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_matched_deciles_track_reference(self, seed):
        rng = np.random.default_rng(seed)
        src = unit_volume_of(rng.random((12, 12, 12)))
        ref = hu_volume(rng.normal(loc=0.0, scale=500.0, size=(12, 12, 12)))
        out = histogram_match(src, ref)
        qs = np.linspace(0.1, 0.9, 9)
        got = np.quantile(out.data, qs)
        want = np.quantile(ref.data, qs)
        span = ref.data.max() - ref.data.min()
        np.testing.assert_allclose(got, want, atol=0.01 * span)

    def test_preserves_geometry_metadata(self):
        src = Volume(np.random.default_rng(0).random((3, 3, 3)), (0.5, 2.0, 1.0), UNIT)
        out = histogram_match(src, hu_volume(np.zeros((3, 3, 3))))
        assert out.spacing == (0.5, 2.0, 1.0)

    @pytest.mark.parametrize("domain", [UNIT, ARBITRARY])
    def test_rejects_a_reference_not_in_hu(self, domain):
        # its output is labelled HU, so a unit-range reference would pass for
        # HU values in [0, 1] and threshold to an empty mask
        ref = Volume(np.linspace(0.0, 1.0, 27).reshape(3, 3, 3), (1, 1, 1), domain)
        with pytest.raises(DomainError, match=f"reference needs a HU volume, got {domain}"):
            histogram_match(unit_volume_of(np.zeros((3, 3, 3))), ref)


class TestThreshold:
    def test_inclusive_at_threshold(self):
        v = hu_volume([[[199.0, 200.0], [201.0, -1000.0]]])
        np.testing.assert_array_equal(
            threshold_hu(v, 200.0).data, [[[0, 1], [1, 0]]]
        )

    def test_rejects_unit_domain(self):
        with pytest.raises(DomainError):
            threshold_hu(unit_volume_of(np.zeros((2, 2, 2))), 200.0)


class TestMorphology:
    def test_open_close_match_scipy(self, rng):
        mask = SegmentationMask((rng.random((10, 9, 11)) < 0.4).astype(np.uint8), (1, 1, 1))
        params = SegmentationParams(opening_radius=1, closing_radius=1)
        struct = np.ones((3, 3, 3), dtype=bool)
        want_open = ndi.binary_opening(mask.data.astype(bool), struct, border_value=0)
        want_close = ndi.binary_closing(mask.data.astype(bool), struct, border_value=0)
        np.testing.assert_array_equal(binary_open(mask, params).data, want_open.astype(np.uint8))
        np.testing.assert_array_equal(
            binary_close(mask, params).data, want_close.astype(np.uint8)
        )

    def test_opening_removes_salt_speckle(self):
        data = np.zeros((12, 12, 12), dtype=np.uint8)
        data[4:9, 4:9, 4:9] = 1  # solid block survives
        data[1, 1, 1] = 1  # isolated voxel does not
        out = binary_open(SegmentationMask(data, (1, 1, 1)), SegmentationParams())
        assert out.data[1, 1, 1] == 0
        assert out.data[5, 5, 5] == 1

    def test_closing_fills_pepper_hole(self):
        data = np.ones((9, 9, 9), dtype=np.uint8)
        data[4, 4, 4] = 0
        out = binary_close(SegmentationMask(data, (1, 1, 1)), SegmentationParams())
        assert out.data[4, 4, 4] == 1

    def test_open_runs_one_erosion_and_one_dilation(self, rng, monkeypatch):
        calls = []
        for name in ("erode", "dilate"):
            def counted(*args, _name=name, _kernel=getattr(kernels, name)):
                calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counted)
        mask = SegmentationMask((rng.random((8, 9, 10)) < 0.5).astype(np.uint8), (1, 1, 1))
        binary_open(mask, SegmentationParams(opening_radius=2))
        assert calls == ["erode", "dilate"]

    def test_zero_radius_is_identity(self, rng):
        mask = SegmentationMask((rng.random((6, 6, 6)) < 0.5).astype(np.uint8), (1, 1, 1))
        params = SegmentationParams(opening_radius=0, closing_radius=0)
        np.testing.assert_array_equal(binary_open(mask, params).data, mask.data)
        np.testing.assert_array_equal(binary_close(mask, params).data, mask.data)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SegmentationParams(opening_radius=-1)
        with pytest.raises(ValueError):
            SegmentationParams(structuring_element="diamond")


class TestSegmentSkull:
    def test_recovers_phantom_shell(self):
        spec = PhantomSpec(shape=(32, 32, 32), semi_axes=(11.0, 11.0, 11.0), thickness=2.5, seed=5)
        _, ct, mask = make_phantom(spec)
        syn = Volume((ct.data - ct.data.min()) / np.ptp(ct.data), (1, 1, 1), UNIT)
        params = SegmentationParams(opening_radius=0, closing_radius=0)
        out = segment_from_matched(histogram_match(syn, ct), params)
        np.testing.assert_array_equal(out.data, mask.data)

    def test_matches_stagewise_composition(self, rng):
        matched = histogram_match(unit_volume_of(rng.random((8, 8, 8))),
                                  hu_volume(rng.normal(scale=400.0, size=(8, 8, 8))))
        params = SegmentationParams()
        whole = segment_from_matched(matched, params)
        staged = binary_close(binary_open(threshold_hu(matched, params.bone_threshold_hu), params),
                              params)
        np.testing.assert_array_equal(whole.data, staged.data)

    def test_idempotent_on_matched_volume(self, rng):
        # re-running the post-matching stages on a volume built from the mask
        # reproduces the mask: the chain is stable under its own output
        data = np.where(rng.random((10, 10, 10)) < 0.3, 1000.0, -500.0)
        params = SegmentationParams(opening_radius=0, closing_radius=0)
        first = segment_from_matched(hu_volume(data), params)
        second = segment_from_matched(
            hu_volume(np.where(first.data, 1000.0, -500.0)), params
        )
        np.testing.assert_array_equal(first.data, second.data)
