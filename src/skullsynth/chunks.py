"""Overlapping chunk decomposition: disjoint cores tiling the volume, plus halos.

A core is a cube of one edge (``core_size`` an int) or a box of one edge per
axis (``core_size`` a tuple); super-resolution inference cuts full-width
z-slabs, whose y and x edges are the volume's own.  The halo is the same
along every axis and stops at the volume's faces, so a slab's halo lies
along z alone.

Chunks come in grid order: `chunk_volume` returns one per origin of
`ChunkGrid.origins`, and `assemble_chunks` takes them back in that order.
Assembly follows the core-wins rule: every output voxel is taken from the one
chunk whose core contains it, halo voxels are discarded.  This makes
assemble(chunk(v)) an exact identity and keeps per-chunk processing equal to
whole-volume processing wherever the halo covers the processing receptive
field.
"""

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChunkGrid:
    source_shape: tuple
    core_size: object  # one edge for every axis (an int), or a tuple of one per axis
    halo: int
    origins: tuple  # absolute start of each core, z-major order

    @classmethod
    def build(cls, source_shape, core_size=64, halo=8):
        shape = tuple(int(n) for n in source_shape)
        per_axis = isinstance(core_size, (tuple, list))
        core = tuple(int(c) for c in core_size) if per_axis else (int(core_size),) * len(shape)
        if len(core) != len(shape):
            raise ValueError(f"core_size {core_size} does not match shape {shape}")
        if min(core) <= 0:
            raise ValueError(f"core_size must be positive, got {core_size}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        origins = tuple(itertools.product(*(range(0, n, c) for n, c in zip(shape, core))))
        return cls(shape, core if per_axis else core[0], int(halo), origins)

    @property
    def core(self):
        """The core edge along each axis."""
        c = self.core_size
        return c if isinstance(c, tuple) else (c,) * len(self.source_shape)

    def core_slices(self, origin):
        return tuple(
            slice(o, min(o + c, n)) for o, c, n in zip(origin, self.core, self.source_shape)
        )

    def chunk_slices(self, origin):
        return tuple(
            slice(max(0, s.start - self.halo), min(n, s.stop + self.halo))
            for s, n in zip(self.core_slices(origin), self.source_shape)
        )

    def scaled(self, factor):
        """The same grid geometry at ``factor``x resolution (for SR assembly)."""
        c = self.core_size
        return ChunkGrid(
            tuple(n * factor for n in self.source_shape),
            tuple(e * factor for e in c) if isinstance(c, tuple) else c * factor,
            self.halo * factor,
            tuple(tuple(o * factor for o in org) for org in self.origins),
        )


# a class, not an array: the benchmark's tracer reads `.data` from each chunk_volume result
@dataclass
class Chunk:
    data: np.ndarray


def chunk_volume(data, grid: ChunkGrid):
    """Split a volume or array into chunks, in canonical z-major order."""
    data = np.asarray(getattr(data, "data", data))
    if tuple(data.shape) != grid.source_shape:
        raise ValueError(f"data shape {data.shape} does not match grid {grid.source_shape}")
    return [Chunk(data[grid.chunk_slices(o)].copy()) for o in grid.origins]


def assemble_chunks(chunks, grid: ChunkGrid) -> np.ndarray:
    """Inverse of chunk_volume under the core-wins rule: `chunks` are the
    grid's, in grid order."""
    if len(chunks) != len(grid.origins):
        raise ValueError(f"{len(chunks)} chunks for a grid of {len(grid.origins)}")
    out = None
    for c, origin in zip(chunks, grid.origins):
        core = grid.core_slices(origin)
        chunk_sl = grid.chunk_slices(origin)
        expected = tuple(s.stop - s.start for s in chunk_sl)
        if tuple(c.data.shape) != expected:
            raise ValueError(
                f"chunk at {origin} has shape {c.data.shape}, grid implies {expected}"
            )
        if out is None:
            out = np.empty(grid.source_shape, dtype=c.data.dtype)
        local = tuple(
            slice(cs.start - s.start, cs.stop - s.start) for cs, s in zip(core, chunk_sl)
        )
        out[core] = c.data[local]
    return out
