"""Overlapping chunk decomposition: disjoint cores tiling the volume, plus halos.

Chunks come in grid order: `chunk_volume` returns one per origin of
`ChunkGrid.origins`, and `assemble_chunks` takes them back in that order.
Assembly follows the core-wins rule: every output voxel is taken from the one
chunk whose core contains it, halo voxels are discarded.  This makes
assemble(chunk(v)) an exact identity and keeps per-chunk processing equal to
whole-volume processing wherever the halo covers the processing receptive
field.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChunkGrid:
    source_shape: tuple
    core_size: int
    halo: int
    origins: tuple  # absolute start of each core, z-major order

    @classmethod
    def build(cls, source_shape, core_size=64, halo=8):
        if core_size <= 0:
            raise ValueError(f"core_size must be positive, got {core_size}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        shape = tuple(int(n) for n in source_shape)
        axes = [tuple(range(0, n, core_size)) for n in shape]
        origins = tuple(
            (z, y, x) for z in axes[0] for y in axes[1] for x in axes[2]
        )
        return cls(shape, int(core_size), int(halo), origins)

    def core_slices(self, origin):
        return tuple(
            slice(o, min(o + self.core_size, n)) for o, n in zip(origin, self.source_shape)
        )

    def chunk_slices(self, origin):
        return tuple(
            slice(max(0, o - self.halo), min(n, min(o + self.core_size, n) + self.halo))
            for o, n in zip(origin, self.source_shape)
        )

    def scaled(self, factor):
        """The same grid geometry at ``factor``x resolution (for SR assembly)."""
        return ChunkGrid(
            tuple(n * factor for n in self.source_shape),
            self.core_size * factor,
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
