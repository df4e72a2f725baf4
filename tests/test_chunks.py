"""Chunk decomposition: exact reassembly, halo clipping, scaled grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skullsynth.chunks import Chunk, ChunkGrid, assemble_chunks, chunk_volume


class TestGrid:
    def test_origin_lattice(self):
        grid = ChunkGrid.build((128, 128, 128), core_size=64, halo=8)
        assert len(grid.origins) == 8
        assert grid.origins[0] == (0, 0, 0)
        assert grid.origins[-1] == (64, 64, 64)

    def test_ragged_tail_cores(self):
        grid = ChunkGrid.build((10, 5, 7), core_size=4, halo=1)
        assert len(grid.origins) == 3 * 2 * 2
        # last core along z covers [8, 10): shorter than core_size
        sl = grid.core_slices((8, 4, 4))
        assert (sl[0].start, sl[0].stop) == (8, 10)

    def test_halo_clipped_at_faces(self):
        grid = ChunkGrid.build((16, 16, 16), core_size=8, halo=3)
        sl = grid.chunk_slices((0, 0, 8))
        assert (sl[0].start, sl[0].stop) == (0, 11)
        assert (sl[2].start, sl[2].stop) == (5, 16)

    def test_validation(self):
        with pytest.raises(ValueError, match="core_size"):
            ChunkGrid.build((8, 8, 8), core_size=0)
        with pytest.raises(ValueError, match="halo"):
            ChunkGrid.build((8, 8, 8), core_size=4, halo=-1)

    def test_scaled_doubles_geometry(self):
        grid = ChunkGrid.build((12, 8, 8), core_size=8, halo=2)
        up = grid.scaled(2)
        assert up.source_shape == (24, 16, 16)
        assert up.core_size == 16 and up.halo == 4
        assert up.origins == tuple(tuple(2 * o for o in org) for org in grid.origins)

    def test_per_axis_core_cuts_full_width_slabs(self):
        grid = ChunkGrid.build((40, 40, 40), core_size=(20, 40, 40), halo=3)
        assert grid.origins == ((0, 0, 0), (20, 0, 0))
        assert [tuple((sl.start, sl.stop) for sl in grid.chunk_slices(o)) for o in grid.origins] \
            == [((0, 23), (0, 40), (0, 40)), ((17, 40), (0, 40), (0, 40))]
        up = grid.scaled(2)
        assert up.core_size == up.core == (40, 80, 80) and up.halo == 6
        assert up.origins == ((0, 0, 0), (40, 0, 0))

    def test_an_int_core_is_the_same_edge_on_every_axis(self):
        cube = ChunkGrid.build((10, 5, 7), core_size=4, halo=1)
        box = ChunkGrid.build((10, 5, 7), core_size=(4, 4, 4), halo=1)
        assert cube.core == (4, 4, 4) and cube.origins == box.origins
        assert [cube.chunk_slices(o) for o in cube.origins] == \
            [box.chunk_slices(o) for o in box.origins]

    def test_per_axis_validation(self):
        with pytest.raises(ValueError, match="core_size must be positive"):
            ChunkGrid.build((8, 8, 8), core_size=(4, 0, 4))
        with pytest.raises(ValueError, match="does not match shape"):
            ChunkGrid.build((8, 8, 8), core_size=(4, 4))


class TestRoundTrip:
    @given(
        shape=st.tuples(*(st.integers(min_value=1, max_value=13),) * 3),
        core=st.tuples(*(st.integers(min_value=1, max_value=14),) * 3),
        halo=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_assemble_inverts_per_axis_chunking(self, shape, core, halo):
        rng = np.random.default_rng(hash((shape, core, halo)) % 2**32)
        data = rng.normal(size=shape)
        grid = ChunkGrid.build(shape, core_size=core, halo=halo)
        out = assemble_chunks(chunk_volume(data, grid), grid)
        np.testing.assert_array_equal(out, data)
        up = grid.scaled(2)
        big = np.repeat(np.repeat(np.repeat(data, 2, 0), 2, 1), 2, 2)
        np.testing.assert_array_equal(assemble_chunks(chunk_volume(big, up), up), big)

    @given(
        shape=st.tuples(*(st.integers(min_value=1, max_value=13),) * 3),
        core=st.integers(min_value=1, max_value=8),
        halo=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_assemble_inverts_chunking(self, shape, core, halo):
        rng = np.random.default_rng(hash((shape, core, halo)) % 2**32)
        data = rng.normal(size=shape)
        grid = ChunkGrid.build(shape, core_size=core, halo=halo)
        out = assemble_chunks(chunk_volume(data, grid), grid)
        np.testing.assert_array_equal(out, data)

    def test_cores_partition_volume(self):
        grid = ChunkGrid.build((10, 6, 9), core_size=4, halo=2)
        seen = np.zeros((10, 6, 9), dtype=int)
        for origin in grid.origins:
            seen[grid.core_slices(origin)] += 1
        np.testing.assert_array_equal(seen, 1)

    def test_shape_mismatch_rejected(self, rng):
        grid = ChunkGrid.build((8, 8, 8), core_size=4, halo=1)
        with pytest.raises(ValueError, match="does not match grid"):
            chunk_volume(rng.normal(size=(8, 8, 7)), grid)

    def test_missing_and_duplicate_chunks_rejected(self, rng):
        grid = ChunkGrid.build((8, 8, 8), core_size=8, halo=0)
        chunks = chunk_volume(rng.normal(size=(8, 8, 8)), grid)
        with pytest.raises(ValueError, match="0 chunks for a grid of 1"):
            assemble_chunks([], grid)
        with pytest.raises(ValueError, match="2 chunks for a grid of 1"):
            assemble_chunks(chunks + chunks, grid)

    def test_wrong_payload_shape_rejected(self, rng):
        grid = ChunkGrid.build((8, 8, 8), core_size=8, halo=0)
        bad = Chunk(rng.normal(size=(3, 3, 3)))
        with pytest.raises(ValueError, match="grid implies"):
            assemble_chunks([bad], grid)

    def test_halo_overlap_content(self, rng):
        # neighbouring chunks carry identical values in their shared halo band
        data = rng.normal(size=(12, 4, 4))
        grid = ChunkGrid.build((12, 4, 4), core_size=6, halo=2)
        chunks = chunk_volume(data, grid)
        first, second = (chunks[grid.origins.index(o)] for o in ((0, 0, 0), (6, 0, 0)))
        np.testing.assert_array_equal(first.data[6:8], data[6:8])
        np.testing.assert_array_equal(second.data[:2], data[4:6])
