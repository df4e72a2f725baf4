"""Volume container, file round trips, and intensity preprocessing."""

import gc
import gzip
import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skullsynth import augment, cut, lapsrn, postprocess
from skullsynth import volume_io as vio
from skullsynth.volume_io import (
    ARBITRARY,
    DOMAINS,
    HU,
    UNIT,
    DomainError,
    FormatError,
    SegmentationMask,
    Volume,
)


class TestVolume:
    def test_data_is_float32_3d(self, rng):
        v = Volume(rng.random((4, 5, 6)), (1.0, 1.0, 1.0), HU)
        assert v.data.dtype == np.float32
        assert v.data.shape == (4, 5, 6)

    def test_rejects_non_3d(self, rng):
        with pytest.raises(ValueError):
            Volume(rng.random((4, 5)), (1.0, 1.0), HU)

    def test_rejects_nonfinite(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume(data, (1.0, 1.0, 1.0), HU)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0), HU)

    @pytest.mark.parametrize("spacing", [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0),
                                         (1.0, 1.0, -float("inf")), (1.0, 0.0, 1.0), (1.0, 1.0)])
    def test_rejects_spacing_that_is_not_3_finite_positive_values(self, spacing):
        with pytest.raises(ValueError, match="spacing must be 3 finite positive values"):
            Volume(np.zeros((2, 2, 2)), spacing, HU)
        with pytest.raises(ValueError, match="spacing must be 3 finite positive values"):
            SegmentationMask(np.zeros((2, 2, 2), np.uint8), spacing)

    def test_unit_domain_range_checked(self):
        with pytest.raises(DomainError):
            Volume(np.full((2, 2, 2), 1.5), (1.0, 1.0, 1.0), UNIT)
        Volume(np.full((2, 2, 2), 1.0), (1.0, 1.0, 1.0), UNIT)  # boundary ok

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0), "KELVIN")

    def test_rejects_an_empty_edge(self):
        with pytest.raises(ValueError, match="every edge >= 1"):
            Volume(np.zeros((0, 8, 8)), (1.0, 1.0, 1.0), HU)


class TestMask:
    def test_binary_enforced(self):
        with pytest.raises(ValueError):
            SegmentationMask(np.full((2, 2, 2), 2, dtype=np.uint8), (1.0, 1.0, 1.0))

    def test_rejects_an_empty_edge(self):
        with pytest.raises(ValueError, match="every edge >= 1"):
            SegmentationMask(np.zeros((8, 0, 8), np.uint8), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.array(-1, np.int8), np.array(0.5), np.array(np.nan)],
                             ids=["int8 -1", "float 0.5", "nan"])
    def test_refuses_an_entry_that_is_not_0_or_1(self, bad):
        data = np.zeros((2, 3, 4), dtype=bad.dtype)
        data[1, 2, 3] = bad
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            SegmentationMask(data, (1.0, 1.0, 1.0))

    def test_accepts_bool_as_uint8_and_keeps_uint8_data(self, rng):
        data = rng.random((3, 4, 5)) > 0.5
        m = SegmentationMask(data, (1.0, 1.0, 1.0))
        assert m.data.dtype == np.uint8
        np.testing.assert_array_equal(m.data, data)
        assert SegmentationMask(m.data, m.spacing).data is m.data

    def test_round_trip_through_volume(self, rng):
        m = SegmentationMask((rng.random((4, 4, 4)) > 0.5).astype(np.uint8), (1.0, 1.0, 1.0))
        back = vio.mask_from_volume(m.to_volume())
        assert np.array_equal(back.data, m.data)


class TestRawRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, rng):
        v = Volume(rng.random((5, 6, 7)), (0.5, 0.75, 1.25), HU)
        path = tmp_path / "vol.raw"
        vio.save_volume(v, path)
        back = vio.load_volume(path)
        assert np.array_equal(back.data, v.data)
        assert back.spacing == v.spacing
        assert back.domain == v.domain

    def test_missing_sidecar(self, tmp_path, rng):
        path = tmp_path / "vol.raw"
        vio.save_volume(Volume(rng.random((2, 2, 2)), (1, 1, 1), HU), path)
        (tmp_path / "vol.raw.meta").unlink()
        with pytest.raises(FormatError):
            vio.load_volume(path)

    def test_nan_spacing_in_the_sidecar_is_refused(self, tmp_path):
        path = tmp_path / "vol.raw"
        vio.save_volume(Volume(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0), HU), path)
        (tmp_path / "vol.raw.meta").write_text("shape=2,2,2\nspacing=nan,1,1\ndomain=HU\n")
        with pytest.raises(ValueError, match="spacing must be 3 finite positive values"):
            vio.load_volume(path)

    @pytest.mark.parametrize("shape", ["0,8,8", "-4,8,8", "8,8,-4"])
    def test_sidecar_edge_below_one_is_refused(self, tmp_path, shape):
        path = tmp_path / "vol.raw"
        path.write_bytes(b"")
        (tmp_path / "vol.raw.meta").write_text(f"shape={shape}\nspacing=1,1,1\ndomain=HU\n")
        with pytest.raises(FormatError, match="vol.raw.meta: shape must be 3 edges >= 1"):
            vio.load_volume(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "vol.raw"
        vio.save_volume(Volume(rng.random((4, 4, 4)), (1, 1, 1), HU), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            vio.load_volume(path)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            vio.load_volume(tmp_path / "nope.raw")

    @pytest.mark.parametrize("name,fmt", [("nope.raw", vio.RAW_F32), ("nope.nii.gz", vio.NIFTI)])
    def test_missing_file_error_names_the_path(self, tmp_path, name, fmt):
        path = tmp_path / name
        with pytest.raises(FileNotFoundError) as info:
            vio.load_volume(path, fmt)
        assert info.value.filename == str(path)

    def test_load_closes_its_files(self, tmp_path, rng):
        path = tmp_path / "vol.raw"
        vio.save_volume(Volume(rng.random((3, 3, 3)), (1, 1, 1), HU), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vio.load_volume(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestNifti:
    def test_round_trip(self, tmp_path, rng):
        v = Volume(rng.random((5, 6, 7)) * 2000 - 1000, (0.5, 0.75, 1.25), HU)
        path = tmp_path / "vol.nii"
        vio.save_volume(v, path, vio.NIFTI)
        back = vio.load_volume(path, vio.NIFTI)
        assert np.array_equal(back.data, v.data)
        assert np.allclose(back.spacing, v.spacing, rtol=1e-6)
        assert back.domain == HU

    def test_gzip_round_trip(self, tmp_path, rng):
        v = Volume(rng.random((4, 4, 4)), (1, 1, 1), UNIT)
        path = tmp_path / "vol.nii.gz"
        vio.save_volume(v, path, vio.NIFTI)
        with gzip.open(path, "rb") as fh:
            assert struct.unpack("<i", fh.read(4))[0] == 348
        back = vio.load_volume(path, vio.NIFTI)
        assert np.array_equal(back.data, v.data)
        assert back.domain == UNIT

    def test_gzip_bytes_do_not_depend_on_the_clock(self, tmp_path, rng, monkeypatch):
        v = Volume(rng.random((4, 4, 4)), (1, 1, 1), UNIT)
        blobs = []
        for i, now in enumerate((1.0e9, 2.0e9)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            path = tmp_path / str(i) / "vol.nii.gz"
            path.parent.mkdir()
            vio.save_volume(v, path, vio.NIFTI)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_scaled_int16_payload(self, tmp_path, rng):
        # writer emits float32; build an int16 file by hand to cover scl_slope
        v = Volume(rng.integers(-1000, 1500, (3, 4, 5)).astype(np.float64), (1, 1, 1), HU)
        path = tmp_path / "int16.nii"
        vio.save_volume(v, path, vio.NIFTI)
        raw = bytearray(path.read_bytes())
        payload = np.frombuffer(raw[352:], dtype="<f4").astype(np.int16)
        struct.pack_into("<h", raw, 70, 4)  # datatype int16
        struct.pack_into("<h", raw, 72, 16)  # bitpix
        struct.pack_into("<f", raw, 112, 2.0)  # scl_slope
        struct.pack_into("<f", raw, 116, 10.0)  # scl_inter
        path.write_bytes(bytes(raw[:352]) + payload.tobytes())
        back = vio.load_volume(path, vio.NIFTI)
        assert np.allclose(back.data, payload.reshape(3, 4, 5) * 2.0 + 10.0)

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "vol.nii"
        vio.save_volume(Volume(rng.random((4, 4, 4)), (1, 1, 1), HU), path, vio.NIFTI)
        path.write_bytes(path.read_bytes()[:360])
        with pytest.raises(FormatError):
            vio.load_volume(path, vio.NIFTI)

    @pytest.mark.parametrize("edge", [0, -4])
    def test_header_edge_below_one_is_refused(self, tmp_path, rng, edge):
        # read as 4x4x1 from the first 16 voxels, were the edge clamped to 1
        path = tmp_path / "vol.nii"
        vio.save_volume(Volume(rng.random((4, 4, 4)), (1, 1, 1), HU), path, vio.NIFTI)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 42, edge)  # dim[1], the x edge
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="vol.nii: every edge must be >= 1"):
            vio.load_volume(path, vio.NIFTI)

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_unreadable_gzip_stream_is_a_format_error(self, tmp_path, rng, damage):
        path = tmp_path / "vol.nii"
        vio.save_volume(Volume(rng.random((4, 4, 4)), (1, 1, 1), HU), path, vio.NIFTI)
        blob = bytearray(gzip.compress(path.read_bytes(), mtime=0))
        if damage == "truncated":
            del blob[len(blob) // 2 :]
        else:
            blob[10] = 0xFF  # the first deflate block header: block type 3 is invalid
        path = tmp_path / "vol.nii.gz"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="vol.nii.gz: unreadable gzip stream"):
            vio.load_volume(path, vio.NIFTI)

    def test_two_file_header_rejected(self, tmp_path):
        # a .hdr holds no voxels (they live in its .img): read from offset
        # 352, this header's 32-byte extension would load as [32, 0, ..., 0]
        path = tmp_path / "vol.nii"
        vio.save_volume(Volume(np.zeros((2, 2, 2)), (1, 1, 1), HU), path, vio.NIFTI)
        hdr = bytearray(path.read_bytes()[:348])
        struct.pack_into("<h", hdr, 70, 2)  # datatype uint8
        struct.pack_into("<h", hdr, 72, 8)  # bitpix
        struct.pack_into("<f", hdr, 108, 0.0)  # vox_offset: the .img starts at 0
        hdr[344:348] = b"ni1\x00"
        extension = struct.pack("<4B2i", 1, 0, 0, 0, 32, 0) + bytes(24)
        path = tmp_path / "vol.hdr"
        path.write_bytes(bytes(hdr) + extension)
        with pytest.raises(FormatError, match="two-file NIfTI"):
            vio.load_volume(path, vio.NIFTI)


class TestResample:
    def test_identity(self, rng):
        v = Volume(rng.random((6, 5, 4)), (1, 1, 1), HU)
        out = vio.resample(v, (6, 5, 4))
        assert np.array_equal(out.data, v.data)

    def test_center_value_upsample(self):
        # center of a 3^3 upsample sits equidistant from all eight sources
        v = Volume(np.arange(8, dtype=np.float64).reshape(2, 2, 2), (2, 2, 2), HU)
        out = vio.resample(v, (3, 3, 3))
        assert out.data[1, 1, 1] == pytest.approx(np.mean(np.arange(8)), abs=1e-6)
        assert out.spacing == pytest.approx((2 * 2 / 3,) * 3)

    def test_downsample_by_two_averages(self):
        # parity checkerboard: every interpolation cell holds four of each value
        idx = np.indices((4, 4, 4)).sum(axis=0)
        data = (idx % 2).astype(np.float64)
        out = vio.resample(Volume(data, (1, 1, 1), HU), (2, 2, 2))
        assert np.allclose(out.data, 0.5)


class TestPreprocessing:
    def test_hounsfield_floor_pins_values(self):
        v = Volume(np.array([-1000.0, -500.0, 0.0, 1500.0]).reshape(1, 1, 4), (1, 1, 1), HU)
        out = vio.hounsfield_floor(v, -500.0)
        assert out.data.reshape(-1).tolist() == [-500.0, -500.0, 0.0, 1500.0]

    def test_hounsfield_floor_requires_hu(self, unit_volume):
        with pytest.raises(DomainError):
            vio.hounsfield_floor(unit_volume)

    def test_minmax_frozen_example(self):
        v = Volume(np.array([-500.0, 0.0, 1500.0]).reshape(1, 1, 3), (1, 1, 1), HU)
        out = vio.minmax_normalize(v)
        assert out.data.reshape(-1).tolist() == pytest.approx([0.0, 0.25, 1.0])
        assert out.domain == UNIT

    def test_minmax_constant_is_zeros(self):
        v = Volume(np.full((2, 2, 2), 3.7), (1, 1, 1), HU)
        out = vio.minmax_normalize(v)
        assert np.array_equal(out.data, np.zeros((2, 2, 2), dtype=np.float32))

    def test_minmax_idempotent_on_attained_range(self, rng):
        data = rng.random((4, 4, 4)).astype(np.float32)
        data.reshape(-1)[0] = 0.0
        data.reshape(-1)[1] = 1.0
        v = Volume(data, (1, 1, 1), UNIT)
        out = vio.minmax_normalize(v)
        assert np.allclose(out.data, v.data, atol=1e-7)

    @given(
        values=st.lists(
            st.floats(min_value=-2000, max_value=3000, allow_nan=False), min_size=8, max_size=27
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_minmax_range_property(self, values):
        n = len(values)
        data = np.asarray(values, dtype=np.float64)[: (n // 8) * 8]
        if data.size < 8:
            return
        data = data[:8].reshape(2, 2, 2)
        v = Volume(data, (1, 1, 1), HU)
        out = vio.minmax_normalize(v)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        # storage is float32, so the attained range is judged after quantization
        if v.data.max() > v.data.min():
            assert out.data.min() == 0.0
            assert out.data.max() == pytest.approx(1.0, abs=1e-6)


def _tiny_sr_state():
    spec = lapsrn.PyramidSpec(filters=2, feat_layers=3)
    return {"net": lapsrn.build_sr_net(spec, seed=0), "cfg": lapsrn.SRTrainConfig(), "spec": spec}


def _tiny_translator():
    g_spec = cut.GeneratorSpec(base_filters=2, n_downsample=1, n_residual_blocks=1)
    return {"g": cut.Generator(g_spec, np.random.default_rng(0))}


# each stage that takes one intensity domain, called with another: the
# stage's name in the message, the domain it needs, and the call
DOMAIN_GUARDS = {
    "hounsfield_floor": (HU, lambda v, tmp: vio.hounsfield_floor(v)),
    "histogram_match's reference": (
        HU, lambda v, tmp: postprocess.histogram_match(Volume(v.data, v.spacing, HU), v)),
    "threshold_hu": (HU, lambda v, tmp: postprocess.threshold_hu(v, 0.5)),
    "augment": (UNIT, lambda v, tmp: augment.augment(v, augment.AugmentationConfig(flip=True), 0)),
    "translate": (UNIT, lambda v, tmp: cut.translate(_tiny_translator(), v)),
    "super_resolve": (UNIT, lambda v, tmp: lapsrn.super_resolve(_tiny_sr_state(), v)),
    "sr training": (UNIT, lambda v, tmp: lapsrn.train_lapsrn([v], lapsrn.SRTrainConfig(),
                                                             run_dir=str(tmp))),
    "cut training": (UNIT, lambda v, tmp: cut.train_cut([v], [v], cut.CutTrainConfig(),
                                                        run_dir=str(tmp))),
}


@pytest.mark.parametrize("stage,domain", [(stage, d) for stage, (needed, _) in DOMAIN_GUARDS.items()
                                          for d in DOMAINS if d != needed])
def test_each_stage_refuses_another_domain_naming_itself(stage, domain, tmp_path):
    """A stage given a volume of any domain but its own raises a DomainError
    that names the stage and both domains, and writes nothing."""
    needed, call = DOMAIN_GUARDS[stage]
    v = Volume(np.random.default_rng(0).random((8, 8, 8)), (1.0,) * 3, domain)
    with pytest.raises(DomainError) as info:
        call(v, tmp_path / "run")
    assert str(info.value) == f"{stage} needs a {needed} volume, got {domain}"
    assert not (tmp_path / "run").exists()
