"""Volume container, file formats, resampling, and intensity normalization.

Two interchange formats:

* RAW_F32 — little-endian float32 payload, z-major (slowest axis first), with
  a text sidecar ``<path>.meta`` holding ``shape=D,H,W``, ``spacing=sz,sy,sx``
  and ``domain=HU|UNIT|ARBITRARY``.
* NIFTI — single-file NIfTI-1 (.nii or .nii.gz), float and common integer
  dtypes, spacing from pixdim, intensity domain carried in the descrip field.

Spacing is quantized to float32 on construction so both formats round-trip
(data, spacing, domain) exactly.
"""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from skullsynth.engine import kernels

HU = "HU"
UNIT = "UNIT"
ARBITRARY = "ARBITRARY"
DOMAINS = (HU, UNIT, ARBITRARY)

# the `[data] format` values
RAW_F32 = "raw"
NIFTI = "nifti"
# file extensions per format; the first is the one a new file gets
EXTENSIONS = {RAW_F32: (".raw",), NIFTI: (".nii.gz", ".nii")}


class FormatError(ValueError):
    """Malformed or inconsistent volume file."""


class DomainError(ValueError):
    """Operation applied to a volume with the wrong intensity-domain tag."""


@dataclass
class Volume:
    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    domain: str = ARBITRARY

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3-D, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite entries")
        self.spacing = tuple(float(np.float32(s)) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive values, got {self.spacing}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == UNIT and self.data.size:
            lo, hi = float(self.data.min()), float(self.data.max())
            if lo < 0.0 or hi > 1.0:
                raise DomainError(f"UNIT volume out of range: [{lo}, {hi}]")


@dataclass
class SegmentationMask:
    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"mask must be 3-D, got shape {arr.shape}")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("mask entries must be exactly 0 or 1")
        self.data = arr.astype(np.uint8)
        self.spacing = tuple(float(np.float32(s)) for s in self.spacing)

    def to_volume(self):
        return Volume(self.data.astype(np.float32), self.spacing, ARBITRARY)


def mask_from_volume(v: Volume) -> SegmentationMask:
    return SegmentationMask((v.data > 0.5).astype(np.uint8), v.spacing)


# ---------------------------------------------------------------------------
# RAW_F32
# ---------------------------------------------------------------------------


def _sidecar_path(path):
    return str(path) + ".meta"


def _save_raw(v, path):
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(v.data, dtype="<f4").tobytes())
    lines = [
        "shape=" + ",".join(str(n) for n in v.data.shape),
        "spacing=" + ",".join(repr(s) for s in v.spacing),
        "domain=" + v.domain,
    ]
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_raw(path):
    meta_path = _sidecar_path(path)
    if not os.path.exists(meta_path):
        raise FormatError(f"missing sidecar {meta_path}")
    fields = {}
    with open(meta_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"bad sidecar line {line!r} in {meta_path}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    try:
        shape = tuple(int(n) for n in fields["shape"].split(","))
        spacing = tuple(float(s) for s in fields["spacing"].split(","))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed sidecar {meta_path}: {exc}") from exc
    domain = fields.get("domain", ARBITRARY)
    if len(shape) != 3:
        raise FormatError(f"sidecar shape must have 3 dims, got {fields['shape']!r}")
    expected = int(np.prod(shape)) * 4
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(shape)
    return Volume(data, spacing, domain)


# ---------------------------------------------------------------------------
# NIfTI-1 (single-file, minimal)
# ---------------------------------------------------------------------------

_NIFTI_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
}


def _save_nifti(v, path):
    d, h, w = v.data.shape
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    # dim[0]=3, then x,y,z sizes (x fastest-varying = our last axis)
    struct.pack_into("<8h", hdr, 40, 3, w, h, d, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)
    sz, sy, sx = v.spacing
    struct.pack_into("<8f", hdr, 76, 0.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    descrip = f"domain={v.domain}".encode("ascii")[:79]
    hdr[148 : 148 + len(descrip)] = descrip
    hdr[344:348] = b"n+1\x00"
    # A zero gzip mtime keeps the bytes of a .nii.gz independent of the clock.
    fh = gzip.GzipFile(path, "wb", mtime=0) if str(path).endswith(".gz") else open(path, "wb")
    with fh:
        fh.write(bytes(hdr))
        fh.write(b"\x00\x00\x00\x00")  # extension flag
        fh.write(np.ascontiguousarray(v.data, dtype="<f4").tobytes())


def _load_nifti(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 352:
        raise FormatError(f"{path}: file shorter than a NIfTI-1 header")
    end = "<"
    (size,) = struct.unpack_from("<i", blob, 0)
    if size != 348:
        (size_be,) = struct.unpack_from(">i", blob, 0)
        if size_be != 348:
            raise FormatError(f"{path}: sizeof_hdr is {size}, not a NIfTI-1 file")
        end = ">"
    magic = blob[344:348]
    if magic == b"ni1\x00":
        raise FormatError(f"{path}: two-file NIfTI (.hdr/.img) is not supported")
    if magic != b"n+1\x00":
        raise FormatError(f"{path}: bad magic {magic!r}")
    dim = struct.unpack_from(end + "8h", blob, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise FormatError(f"{path}: dim[0]={ndim} out of range")
    if ndim > 3 and any(n > 1 for n in dim[4 : ndim + 1]):
        raise FormatError(f"{path}: only volumetric (3-D) images are supported, dim={dim}")
    nx, ny, nz = (max(1, n) for n in dim[1:4])
    (dtype_code,) = struct.unpack_from(end + "h", blob, 70)
    if dtype_code not in _NIFTI_DTYPES:
        raise FormatError(f"{path}: unsupported datatype code {dtype_code}")
    dtype = np.dtype(_NIFTI_DTYPES[dtype_code]).newbyteorder(end)
    pixdim = struct.unpack_from(end + "8f", blob, 76)
    (vox_offset,) = struct.unpack_from(end + "f", blob, 108)
    slope, inter = struct.unpack_from(end + "2f", blob, 112)
    offset = int(vox_offset) if vox_offset >= 352 else 352
    n_vox = nx * ny * nz
    expected = n_vox * dtype.itemsize
    payload = blob[offset : offset + expected]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: truncated payload, have {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(nz, ny, nx).astype(np.float32)
    if slope not in (0.0, 1.0) or inter != 0.0:
        scale = slope if slope != 0.0 else 1.0
        data = data * np.float32(scale) + np.float32(inter)
    descrip = blob[148:228].split(b"\x00", 1)[0].decode("ascii", errors="replace")
    domain = ARBITRARY
    for token in descrip.split():
        if token.startswith("domain=") and token[7:] in DOMAINS:
            domain = token[7:]
    spacing = [abs(p) if p else 1.0 for p in pixdim[1:4]]
    return Volume(data, (spacing[2], spacing[1], spacing[0]), domain)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def load_volume(path, format=RAW_F32) -> Volume:
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such volume file: {path}")
    if format == RAW_F32:
        return _load_raw(path)
    if format == NIFTI:
        return _load_nifti(path)
    raise ValueError(f"unknown format {format!r}")


def save_volume(v: Volume, path, format=RAW_F32) -> None:
    if format == RAW_F32:
        _save_raw(v, path)
    elif format == NIFTI:
        _save_nifti(v, path)
    else:
        raise ValueError(f"unknown format {format!r}")


def resample(v: Volume, target_shape) -> Volume:
    out = kernels.resample3d(v.data, target_shape)
    spacing = tuple(s * o / t for s, o, t in zip(v.spacing, v.data.shape, target_shape))
    return Volume(out, spacing, v.domain)


def hounsfield_floor(v: Volume, floor_hu: float = -500.0) -> Volume:
    if v.domain != HU:
        raise DomainError(f"hounsfield_floor needs a HU volume, got {v.domain}")
    return Volume(np.maximum(v.data, np.float32(floor_hu)), v.spacing, HU)


def minmax_normalize(v: Volume) -> Volume:
    lo = float(v.data.min())
    hi = float(v.data.max())
    if hi == lo:
        data = np.zeros_like(v.data)
    else:
        data = (v.data.astype(np.float64) - lo) / (hi - lo)
    return Volume(data, v.spacing, UNIT)
