"""Plan-compiled SHIFT-SPLIT vs the interpreted path: bit-identity,
I/O-trace identity, the parallel bulk-load pipeline, and the plan-cache
machinery itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    apply_chunk_nonstandard,
    apply_chunk_nonstandard_uncached,
    apply_chunk_standard,
    apply_chunk_standard_uncached,
    extract_region_transform_standard,
    extract_region_transform_standard_uncached,
    get_standard_plan,
    plan_cache_info,
    plans_enabled,
    set_plans_enabled,
    split_contributions_nonstandard,
    split_weights_nonstandard,
    use_plans,
)
from repro.storage.dense import DenseNonStandardStore, DenseStandardStore
from repro.storage.tiled import TiledNonStandardStore, TiledStandardStore
from repro.transform.chunked import (
    _CrestBuffer,
    transform_nonstandard_chunked,
    transform_standard_chunked,
)
from repro.wavelet.keys import NonStandardKey

# Small randomized geometries: per-axis domain exponents in [2, 5],
# chunk exponents in [1, domain exponent], 1-3 dimensions.
standard_geometries = st.integers(1, 3).flatmap(
    lambda ndim: st.tuples(
        st.lists(st.integers(2, 5), min_size=ndim, max_size=ndim),
        st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim),
        st.integers(1, 2),
        st.integers(0, 10**6),
    )
)


def _standard_case(geometry):
    domain_exp, chunk_raw, block_exp, seed = geometry
    shape = tuple(1 << e for e in domain_exp)
    chunk = tuple(
        1 << min(c, e) for c, e in zip(chunk_raw, domain_exp)
    )
    block_edge = 1 << min(block_exp, min(domain_exp))
    return shape, chunk, block_edge, seed


class TestStandardPlanEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(standard_geometries, st.booleans())
    def test_cached_matches_uncached(self, geometry, fresh):
        shape, chunk, block_edge, seed = _standard_case(geometry)
        rng = np.random.default_rng(seed)
        grid = tuple(
            int(rng.integers(0, extent // ce))
            for extent, ce in zip(shape, chunk)
        )
        data = rng.standard_normal(chunk)

        tiled_plan = TiledStandardStore(shape, block_edge=block_edge)
        tiled_base = TiledStandardStore(shape, block_edge=block_edge)
        dense_plan = DenseStandardStore(shape)
        dense_base = DenseStandardStore(shape)
        with use_plans(True):
            apply_chunk_standard(tiled_plan, data, grid, fresh=fresh)
            apply_chunk_standard(dense_plan, data, grid, fresh=fresh)
        apply_chunk_standard_uncached(tiled_base, data, grid, fresh=fresh)
        apply_chunk_standard_uncached(dense_base, data, grid, fresh=fresh)

        assert np.array_equal(tiled_plan.to_array(), tiled_base.to_array())
        assert np.array_equal(dense_plan.to_array(), dense_base.to_array())
        assert tiled_plan.stats.snapshot() == tiled_base.stats.snapshot()
        assert dense_plan.stats.snapshot() == dense_base.stats.snapshot()

    @settings(max_examples=10, deadline=None)
    @given(standard_geometries)
    def test_extract_matches_uncached(self, geometry):
        shape, chunk, block_edge, seed = _standard_case(geometry)
        rng = np.random.default_rng(seed)
        grid = tuple(
            int(rng.integers(0, extent // ce))
            for extent, ce in zip(shape, chunk)
        )
        corner = tuple(g * ce for g, ce in zip(grid, chunk))
        store = TiledStandardStore(shape, block_edge=block_edge)
        with use_plans(True):
            transform_standard_chunked(
                store, rng.standard_normal(shape), chunk
            )
        mirror = TiledStandardStore(shape, block_edge=block_edge)
        mirror.set_region(
            [np.arange(extent) for extent in shape], store.to_array()
        )
        with use_plans(True):
            got = extract_region_transform_standard(store, corner, chunk)
        want = extract_region_transform_standard_uncached(
            mirror, corner, chunk
        )
        assert np.array_equal(got, want)


class TestNonStandardPlanEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def test_cached_matches_uncached(self, ndim, n, m_raw, fresh, seed):
        m = min(m_raw, n)
        size, edge = 1 << n, 1 << m
        rng = np.random.default_rng(seed)
        grid = tuple(int(g) for g in rng.integers(0, size // edge, ndim))
        data = rng.standard_normal((edge,) * ndim)

        tiled_plan = TiledNonStandardStore(size, ndim, block_edge=2)
        tiled_base = TiledNonStandardStore(size, ndim, block_edge=2)
        dense_plan = DenseNonStandardStore(size, ndim)
        dense_base = DenseNonStandardStore(size, ndim)
        with use_plans(True):
            apply_chunk_nonstandard(tiled_plan, data, grid, fresh=fresh)
            apply_chunk_nonstandard(dense_plan, data, grid, fresh=fresh)
        apply_chunk_nonstandard_uncached(tiled_base, data, grid, fresh=fresh)
        apply_chunk_nonstandard_uncached(dense_base, data, grid, fresh=fresh)

        assert np.array_equal(tiled_plan.to_array(), tiled_base.to_array())
        assert np.array_equal(dense_plan.to_array(), dense_base.to_array())
        assert tiled_plan.stats.snapshot() == tiled_base.stats.snapshot()

    def test_split_wrapper_matches_arrays(self):
        size, edge, grid = 64, 8, (3, 5)
        levels, nodes, masks, weights, scaling = split_weights_nonstandard(
            size, edge, grid
        )
        average = -1.625  # exactly representable
        details, scaling_delta = split_contributions_nonstandard(
            size, edge, grid, average
        )
        assert scaling_delta == average * scaling
        assert len(details) == len(weights)
        for (key, delta), level, node, mask, weight in zip(
            details, levels, nodes, masks, weights
        ):
            assert key == NonStandardKey(
                int(level), tuple(int(k) for k in node), int(mask)
            )
            assert delta == average * weight

    def test_split_weight_arrays_read_only(self):
        levels, __, __, weights, __ = split_weights_nonstandard(32, 4, (0, 0))
        with pytest.raises(ValueError):
            weights[0] = 0.0
        with pytest.raises(ValueError):
            levels[0] = 0


class TestBulkLoadDrivers:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from(["rowmajor", "zorder"]),
        st.integers(0, 10**6),
    )
    def test_standard_modes_bit_identical(self, ndim, order, seed):
        shape = (32,) * ndim if ndim < 3 else (16,) * ndim
        chunk = (8,) * ndim
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(shape)

        def load(**kwargs):
            store = TiledStandardStore(shape, block_edge=4, pool_capacity=16)
            transform_standard_chunked(
                store, data, chunk, order=order, **kwargs
            )
            return store

        base = load(use_plans=False)
        cached = load(use_plans=True)
        piped = load(workers=3)

        want = base.to_array()
        assert np.array_equal(want, cached.to_array())
        assert np.array_equal(want, piped.to_array())
        # The serial plan path and the ordered pipeline both replay the
        # exact block-I/O trace.
        assert base.stats.snapshot() == cached.stats.snapshot()
        assert base.stats.snapshot() == piped.stats.snapshot()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 2), st.booleans(), st.integers(0, 10**6))
    def test_nonstandard_modes_bit_identical(self, ndim, crest, seed):
        size, edge = 32, 8
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((size,) * ndim)

        def load(use_plans):
            store = TiledNonStandardStore(
                size, ndim, block_edge=4, pool_capacity=16
            )
            transform_nonstandard_chunked(
                store, data, edge, buffer_crest=crest, use_plans=use_plans
            )
            return store

        base = load(False)
        cached = load(True)
        assert np.array_equal(base.to_array(), cached.to_array())
        assert base.stats.snapshot() == cached.stats.snapshot()

    def test_sparse_pipeline_matches_serial(self):
        shape, chunk = (64, 64), (16, 16)
        rng = np.random.default_rng(5)
        data = np.zeros(shape)
        data[:16, 32:48] = rng.standard_normal((16, 16))

        def load(**kwargs):
            store = TiledStandardStore(shape, block_edge=8, pool_capacity=16)
            report = transform_standard_chunked(
                store, data, chunk, skip_zero_chunks=True, **kwargs
            )
            return store, report

        base, base_report = load(use_plans=False)
        piped, piped_report = load(workers=3)
        assert np.array_equal(base.to_array(), piped.to_array())
        assert base.stats.snapshot() == piped.stats.snapshot()
        assert (
            base_report.extras["skipped_chunks"]
            == piped_report.extras["skipped_chunks"]
            == 15
        )

    def test_workers_require_plan_path(self):
        store = TiledStandardStore((16, 16), block_edge=4)
        data = np.zeros((16, 16))
        with pytest.raises(ValueError):
            transform_standard_chunked(
                store, data, (8, 8), workers=2, use_plans=False
            )

    def test_pipeline_on_a_dense_store_matches_serial(self):
        # The ordered pipeline accepts any standard store, not only a
        # tiled one.
        rng = np.random.default_rng(11)
        data = rng.standard_normal((16, 16))
        base = TiledStandardStore((16, 16), block_edge=4)
        transform_standard_chunked(base, data, (8, 8))
        dense = DenseStandardStore((16, 16))
        transform_standard_chunked(dense, data, (8, 8), workers=2)
        assert np.array_equal(base.to_array(), dense.to_array())


class TestPlanCacheMachinery:
    def test_switch_scoping(self):
        initial = plans_enabled()
        with use_plans(False):
            assert not plans_enabled()
            with use_plans(True):
                assert plans_enabled()
            assert not plans_enabled()
        assert plans_enabled() == initial
        previous = set_plans_enabled(False)
        assert previous == initial
        set_plans_enabled(initial)

    def test_cache_hits_on_repeat_geometry(self):
        before = plan_cache_info()["standard_plans"]
        plan_a = get_standard_plan((64, 64), (16, 16), (1, 2))
        plan_b = get_standard_plan((64, 64), (16, 16), (1, 2))
        after = plan_cache_info()["standard_plans"]
        assert plan_a is plan_b
        assert after["hits"] >= before["hits"] + 1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            get_standard_plan((64, 64), (16,), (0, 0))


class TestCrestBuffer:
    def test_completed_list_drains_once(self):
        crest = _CrestBuffer(ndim=2)
        key = lambda mask: NonStandardKey(3, (0, 0), mask)
        # gap 0 => 3 expected contributions (one per type mask).
        crest.add(key(1), 1.0, 0)
        crest.add(key(2), 2.0, 0)
        assert list(crest.pop_complete()) == []
        crest.add(key(3), 3.0, 0)
        popped = list(crest.pop_complete())
        assert len(popped) == 1
        (level, node), values = popped[0]
        assert (level, node) == (3, (0, 0))
        assert np.array_equal(values, [1.0, 2.0, 3.0])
        assert list(crest.pop_complete()) == []
        assert crest.is_empty()
