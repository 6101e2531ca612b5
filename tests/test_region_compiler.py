"""The one-pass region compiler against the per-tile recursions it
replaced.

Both tiled stores once walked a region tile by tile: the standard
store recursed over the cross product of per-axis tile groups, and the
non-standard store ran a generator over per-axis root groups, each
visit building ``np.ix_`` selectors.  Those recursions are copied below
as the reference.  For random regions (1-3 axes, every tile edge,
small pools so that the fetch order decides evictions; empty and
single-tile regions included) the stores' compiled paths must give

* the same values (``np.array_equal``, stored and read),
* the same seven :class:`~repro.storage.iostats.IOStats` counters, and
* the same sequence of tile keys handed to ``TileStore.tile`` /
  ``TileStore.peek``.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.scatter import compile_region, group_axis_indices
from repro.storage.tiled import TiledNonStandardStore, TiledStandardStore

# ----------------------------------------------------------------------
# reference: the per-tile recursions, as they were
# ----------------------------------------------------------------------


def _ref_group_by_tile(bands, roots):
    span = int(roots.max()) + 1 if roots.size else 1
    combined = bands * span + roots
    unique, inverse = np.unique(combined, return_inverse=True)
    groups = []
    for group_index, key in enumerate(unique):
        selector = np.nonzero(inverse == group_index)[0]
        groups.append(((int(key) // span, int(key) % span), selector))
    return groups


def _ref_located(store, per_axis):
    located = []
    for axis, indices in enumerate(per_axis):
        flat = np.asarray(indices, dtype=np.int64)
        bands, roots, slots = store.tiling.locate_axis_indices(axis, flat)
        located.append((slots, _ref_group_by_tile(bands, roots)))
    return located


def _ref_walk(store, per_axis, visit):
    located = _ref_located(store, per_axis)
    ndim = store.ndim

    def recurse(axis, tile_parts, selectors):
        if axis == ndim:
            slot_ix = np.ix_(
                *[located[a][0][selectors[a]] for a in range(ndim)]
            )
            visit(tuple(tile_parts), slot_ix, np.ix_(*selectors))
            return
        for part, selector in located[axis][1]:
            tile_parts.append(part)
            selectors.append(selector)
            recurse(axis + 1, tile_parts, selectors)
            tile_parts.pop()
            selectors.pop()

    recurse(0, [], [])


def ref_update_region(store, per_axis, values, accumulate):
    values = np.asarray(values, dtype=np.float64)
    edge_shape = (store.tiling.block_edge,) * store.ndim

    def visit(key, slot_ix, value_ix):
        tile = store.tile_store.tile(key, for_write=True)
        view = tile.reshape(edge_shape)
        if accumulate:
            view[slot_ix] += values[value_ix]
        else:
            view[slot_ix] = values[value_ix]

    _ref_walk(store, per_axis, visit)


def ref_read_region(store, per_axis):
    out = np.zeros(tuple(len(axis) for axis in per_axis))
    edge_shape = (store.tiling.block_edge,) * store.ndim

    def visit(key, slot_ix, value_ix):
        tile = store.tile_store.peek(key)
        if tile is not None:
            out[value_ix] = tile.reshape(edge_shape)[slot_ix]

    _ref_walk(store, per_axis, visit)
    return out


def _ref_region_tiles(store, level, type_mask, node_start, node_counts):
    tiling = store.tiling
    band = tiling.band_of_level(level)
    depth = tiling.band_root_level(band) - level
    side = 1 << depth
    branching = tiling.branching
    base = ((branching ** depth) - 1) // (branching - 1)
    nodes = [
        np.arange(int(start), int(start) + int(count), dtype=np.int64)
        for start, count in zip(node_start, node_counts)
    ]
    groups_per_axis = []
    for axis_nodes in nodes:
        unique, inverse = np.unique(axis_nodes >> depth, return_inverse=True)
        groups_per_axis.append(
            [
                (int(root), np.nonzero(inverse == g)[0])
                for g, root in enumerate(unique)
            ]
        )

    def recurse(axis, chosen_roots, selectors):
        if axis == tiling.ndim:
            ordinal = np.zeros(
                tuple(sel.size for sel in selectors), dtype=np.int64
            )
            for a in range(tiling.ndim):
                local = nodes[a][selectors[a]] - (chosen_roots[a] << depth)
                shape = [1] * tiling.ndim
                shape[a] = local.size
                ordinal = ordinal * side + local.reshape(shape)
            slots = 1 + (base + ordinal) * (branching - 1) + (type_mask - 1)
            yield (band, tuple(chosen_roots)), slots, selectors
            return
        for root, selector in groups_per_axis[axis]:
            chosen_roots.append(root)
            selectors.append(selector)
            yield from recurse(axis + 1, chosen_roots, selectors)
            chosen_roots.pop()
            selectors.pop()

    yield from recurse(0, [], [])


def ref_set_details(store, level, type_mask, node_start, values):
    values = np.asarray(values, dtype=np.float64)
    for key, slots, selectors in _ref_region_tiles(
        store, level, type_mask, node_start, values.shape
    ):
        tile = store.tile_store.tile(key, for_write=True)
        tile[slots.ravel()] = values[np.ix_(*selectors)].ravel()


def ref_read_details(store, level, type_mask, node_start, node_counts):
    out = np.zeros(tuple(int(c) for c in node_counts), dtype=np.float64)
    for key, slots, selectors in _ref_region_tiles(
        store, level, type_mask, node_start, node_counts
    ):
        tile = store.tile_store.peek(key)
        if tile is not None:
            out[np.ix_(*selectors)] = tile[slots.ravel()].reshape(slots.shape)
    return out


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def _spy(store):
    """Record every ``tile`` / ``peek`` call on the store's TileStore."""
    log = []
    tile_store = store.tile_store
    tile, peek = tile_store.tile, tile_store.peek

    def spy_tile(key, for_write=False):
        log.append(("tile", key, for_write))
        return tile(key, for_write=for_write)

    def spy_peek(key):
        log.append(("peek", key))
        return peek(key)

    tile_store.tile = spy_tile
    tile_store.peek = spy_peek
    return log


def _assert_same(new, ref, new_log, ref_log):
    assert new_log == ref_log
    assert astuple(new.stats) == astuple(ref.stats)
    assert np.array_equal(new.to_array(), ref.to_array())


@st.composite
def standard_cases(draw):
    ndim = draw(st.integers(1, 3))
    top = 5 if ndim < 3 else 4
    levels = [draw(st.integers(1, top)) for __ in range(ndim)]
    edge = 1 << draw(st.integers(1, min(levels)))
    shape = tuple(1 << n for n in levels)
    pool = draw(st.integers(1, 4))
    regions = st.tuples(
        *[
            st.lists(st.integers(0, extent - 1), unique=True, max_size=12)
            for extent in shape
        ]
    )
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["set", "add", "read"]), regions),
            min_size=1,
            max_size=5,
        )
    )
    return shape, edge, pool, ops


@st.composite
def nonstandard_cases(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5 if ndim < 3 else 3))
    edge = 1 << draw(st.integers(1, n))
    pool = draw(st.integers(1, 4))
    ops = []
    for __ in range(draw(st.integers(1, 5))):
        level = draw(st.integers(1, n))
        mask = draw(st.integers(1, (1 << ndim) - 1))
        nodes = 1 << (n - level)
        start = tuple(draw(st.integers(0, nodes - 1)) for __ in range(ndim))
        counts = tuple(draw(st.integers(0, nodes - s)) for s in start)
        kind = draw(st.sampled_from(["set", "read"]))
        ops.append((kind, level, mask, start, counts))
    return 1 << n, ndim, edge, pool, ops


def _run_standard(shape, edge, pool, ops, seed=0):
    rng = np.random.default_rng(seed)
    new, ref = (
        TiledStandardStore(shape, block_edge=edge, pool_capacity=pool)
        for __ in range(2)
    )
    new_log, ref_log = _spy(new), _spy(ref)
    for kind, region in ops:
        per_axis = [np.asarray(axis, dtype=np.int64) for axis in region]
        if kind == "read":
            got = new.read_region(per_axis)
            want = ref_read_region(ref, per_axis)
            assert np.array_equal(got, want)
        else:
            values = rng.standard_normal(tuple(len(a) for a in region))
            if kind == "set":
                new.set_region(per_axis, values)
            else:
                new.add_region(per_axis, values)
            ref_update_region(ref, per_axis, values, kind == "add")
        assert new_log == ref_log
        assert astuple(new.stats) == astuple(ref.stats)
    fetched = list(new_log)
    _assert_same(new, ref, new_log, ref_log)
    return fetched


def _run_nonstandard(size, ndim, edge, pool, ops, seed=0):
    rng = np.random.default_rng(seed)
    new, ref = (
        TiledNonStandardStore(size, ndim, block_edge=edge, pool_capacity=pool)
        for __ in range(2)
    )
    new_log, ref_log = _spy(new), _spy(ref)
    for kind, level, mask, start, counts in ops:
        if kind == "read":
            got = new.read_details(level, mask, start, counts)
            want = ref_read_details(ref, level, mask, start, counts)
            assert np.array_equal(got, want)
        else:
            values = rng.standard_normal(counts)
            new.set_details(level, mask, start, values)
            ref_set_details(ref, level, mask, start, values)
        assert new_log == ref_log
        assert astuple(new.stats) == astuple(ref.stats)
    fetched = list(new_log)
    _assert_same(new, ref, new_log, ref_log)
    return fetched


class TestStandardStore:
    @given(standard_cases(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_regions_match_the_recursion(self, case, seed):
        _run_standard(*case, seed=seed)

    def test_empty_region_touches_no_tile(self):
        ops = [
            ("set", ([], [1, 2])),
            ("add", ([3], [])),
            ("read", ([], [])),
        ]
        assert _run_standard((8, 8), 2, 2, ops) == []

    def test_single_tile_region(self):
        # one index per axis: the region lies in one tile
        ops = [("set", ([4], [5])), ("add", ([4], [5])), ("read", ([4], [5]))]
        log = _run_standard((8, 8), 2, 1, ops)
        assert len({entry[1] for entry in log}) == 1

    def test_tiles_come_ascending_last_axis_fastest(self):
        # Four tiles; the fetch order is pinned, so reversing (or
        # transposing) the compiled order fails here even where the
        # pool is large enough to hide it in the I/O counters.
        store = TiledStandardStore((8, 8), block_edge=4, pool_capacity=8)
        log = _spy(store)
        per_axis = [np.asarray([4, 6]), np.asarray([7, 5])]
        store.set_region(per_axis, np.ones((2, 2)))
        a, b = (0, 0), (0, 1)  # the parts holding indices 4-5 and 6-7
        assert [entry[1] for entry in log] == [
            (a, a), (a, b), (b, a), (b, b)
        ]

    def test_values_shape_must_match_the_region(self):
        store = TiledStandardStore((8, 8), block_edge=2)
        with pytest.raises(ValueError):
            store.set_region([np.arange(2), np.arange(3)], np.ones((3, 2)))


class TestNonStandardStore:
    @given(nonstandard_cases(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_details_match_the_recursion(self, case, seed):
        _run_nonstandard(*case, seed=seed)

    def test_empty_region_touches_no_tile(self):
        ops = [("set", 1, 1, (0, 2), (0, 3)), ("read", 2, 3, (1, 0), (2, 0))]
        assert _run_nonstandard(16, 2, 4, 2, ops) == []

    def test_single_tile_region(self):
        ops = [("set", 1, 2, (2, 4), (2, 2)), ("read", 1, 2, (2, 4), (2, 2))]
        log = _run_nonstandard(16, 2, 4, 1, ops)
        assert {entry[1] for entry in log} == {(0, (1, 2))}

    def test_tiles_come_ascending_last_axis_fastest(self):
        store = TiledNonStandardStore(16, 2, block_edge=4)
        log = _spy(store)
        store.set_details(1, 1, (1, 1), np.ones((2, 2)))
        assert [entry[1] for entry in log] == [
            (0, (0, 0)), (0, (0, 1)), (0, (1, 0)), (0, (1, 1))
        ]


class TestCompiler:
    def test_entries_partition_the_region(self):
        tiling = TiledStandardStore((16, 8), 2).tiling
        axes = [
            group_axis_indices(tiling.dim(axis), indices)
            for axis, indices in enumerate(
                [np.asarray([9, 1, 14, 3]), np.asarray([0, 7, 2])]
            )
        ]
        region = compile_region(axes, [2, 1])
        sources = np.concatenate([source for __, __, source in region.tiles])
        assert region.entries == 12
        assert sorted(sources.tolist()) == list(range(12))
        keys = [key for key, __, __ in region.tiles]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
