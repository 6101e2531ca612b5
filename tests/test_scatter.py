"""Regions compiled through ``CompiledRegion.from_axis_groups`` (the
chunk plans' entry point) vs the tiled store's own region calls: same
values, same tiles, same I/O; duplicate-index rejection at compile
time."""

import numpy as np
import pytest

from repro.storage.scatter import CompiledRegion, group_axis_indices
from repro.storage.tiled import TiledStandardStore
from repro.tiling.onedim import OneDimTiling


def _compile(shape, block_edge, axis_indices, tensor_shape=None):
    groups = [
        group_axis_indices(OneDimTiling(extent, block_edge), indices)
        for extent, indices in zip(shape, axis_indices)
    ]
    shape_of_block = tuple(len(ix) for ix in axis_indices)
    return CompiledRegion.from_axis_groups(
        groups,
        [0] * len(shape),
        tensor_shape or shape_of_block,
        block_edge,
    )


class TestGroupAxisIndices:
    def test_rejects_duplicates_at_compile_time(self):
        tiling = OneDimTiling(16, 4)
        with pytest.raises(ValueError):
            group_axis_indices(tiling, np.asarray([3, 5, 3]))

    def test_groups_sorted_by_band_and_root(self):
        tiling = OneDimTiling(16, 4)
        groups = group_axis_indices(tiling, np.arange(16))
        assert list(groups.parts) == sorted(groups.parts)
        assert groups.group.size == groups.slots.size == 16
        assert set(groups.group.tolist()) == set(range(len(groups.parts)))


class TestCompiledRegionVsInterpreted:
    def test_scatter_set_matches_set_region(self):
        shape, block_edge = (16, 16), 4
        axis_indices = [np.asarray([1, 3, 6, 12]), np.asarray([0, 2, 9])]
        values = np.arange(12, dtype=np.float64).reshape(4, 3)

        interpreted = TiledStandardStore(shape, block_edge=block_edge)
        interpreted.set_region(axis_indices, values)

        compiled_store = TiledStandardStore(shape, block_edge=block_edge)
        region = _compile(shape, block_edge, axis_indices)
        region.scatter(
            compiled_store.tile_store, values.reshape(-1), accumulate=False
        )

        assert np.array_equal(
            interpreted.to_array(), compiled_store.to_array()
        )
        assert (
            interpreted.stats.snapshot() == compiled_store.stats.snapshot()
        )
        assert region.entries == values.size

    def test_scatter_accumulates_like_add_region(self):
        shape, block_edge = (16, 16), 4
        axis_indices = [np.asarray([0, 5, 10]), np.asarray([3, 8])]
        values = np.ones((3, 2))

        interpreted = TiledStandardStore(shape, block_edge=block_edge)
        interpreted.add_region(axis_indices, values)
        interpreted.add_region(axis_indices, 2.0 * values)

        compiled_store = TiledStandardStore(shape, block_edge=block_edge)
        region = _compile(shape, block_edge, axis_indices)
        region.scatter(
            compiled_store.tile_store, values.reshape(-1), accumulate=True
        )
        region.scatter(
            compiled_store.tile_store,
            (2.0 * values).reshape(-1),
            accumulate=True,
        )

        assert np.array_equal(
            interpreted.to_array(), compiled_store.to_array()
        )
        assert (
            interpreted.stats.snapshot() == compiled_store.stats.snapshot()
        )

    def test_gather_matches_read_region(self):
        shape, block_edge = (16, 16), 4
        rng = np.random.default_rng(9)
        full = rng.standard_normal(shape)
        store = TiledStandardStore(shape, block_edge=block_edge)
        store.set_region([np.arange(16), np.arange(16)], full)

        axis_indices = [np.asarray([2, 7, 13]), np.asarray([1, 4, 11, 14])]
        want = store.read_region(axis_indices)

        region = _compile(shape, block_edge, axis_indices)
        got = np.zeros((3, 4))
        region.gather(store.tile_store, got.reshape(-1))
        assert np.array_equal(got, want)

    def test_gather_skips_never_materialised_tiles(self):
        shape, block_edge = (16, 16), 4
        store = TiledStandardStore(shape, block_edge=block_edge)
        # Only write one corner tile; the rest of the domain is virgin.
        store.set_region([np.arange(2), np.arange(2)], np.ones((2, 2)))
        before = store.stats.snapshot()

        axis_indices = [np.asarray([0, 12]), np.asarray([0, 12])]
        region = _compile(shape, block_edge, axis_indices)
        out = np.full(4, -1.0)
        region.gather(store.tile_store, out)
        assert out[0] == 1.0
        # Missing tiles are skipped outright — the caller's (normally
        # zero-filled) buffer is left untouched there, and no block
        # reads are charged.
        assert np.array_equal(out[1:], [-1.0, -1.0, -1.0])
        assert store.stats.block_reads == before.block_reads
