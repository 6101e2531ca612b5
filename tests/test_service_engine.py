"""Tests for the query engine.

Covers the serving acceptance criteria: concurrent callers over one
sharded pool match sequential ground truth, every query runs in its
caller's thread, dirty blocks survive ``close()`` (verified against the
device, not the cache), ``close()`` waits for running calls, the
in-flight quota rejects promptly, and expired deadlines produce timeout
or degraded answers rather than hangs.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.reconstruct import rangesum
from repro.reconstruct.rangesum import range_sum_standard
from repro.service.engine import (
    STATUS_ERROR,
    AdmissionError,
    EngineClosedError,
    QueryEngine,
    QuotaError,
)
from repro.service.queries import (
    CustomQuery,
    PointQuery,
    RangeSumQuery,
    RegionQuery,
    execute_query,
)
from repro.service.replay import build_store, build_workload, run_naive


def _mixed_workload(shape, seed=3):
    return build_workload(
        shape, points=16, range_sums=8, regions=8, seed=seed
    )


def _values_equal(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.allclose(left, right, atol=1e-9)
    return np.isclose(left, right, atol=1e-9)


class TestConcurrentCorrectness:
    def test_eight_threads_match_sequential_and_flush_survives_close(self):
        store, data = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=5
        )
        queries = _mixed_workload(store.shape)

        engine = QueryEngine(store, num_shards=4, pool_capacity=16)
        # Dirty the pool through the engine's sharded path: the writes
        # must reach the device by close(), not die in the cache.
        # (write_point stores raw coefficients, so pick detail slots
        # whose value round-trips directly.)
        writes = {(1, 2): 123.5, (30, 17): -7.25, (16, 16): 0.125}
        for position, value in writes.items():
            store.write_point(position, value)

        # Sequential ground truth from a second, untouched engine-free
        # execution path: a fresh store loaded with identical content.
        reference, __ = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=5
        )
        for position, value in writes.items():
            reference.write_point(position, value)
        expected = [execute_query(reference, query) for query in queries]

        results = [None] * len(queries)
        barrier = threading.Barrier(8)

        def client(thread_index):
            barrier.wait()  # all eight threads fire at once
            for i in range(thread_index, len(queries), 8):
                results[i] = engine.run(queries[i])

        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.close()

        for expected_value, result in zip(expected, results):
            assert result.ok, result.error
            assert _values_equal(expected_value, result.value)

        # Flush verification against the *device*: locate each written
        # coefficient's block and read it raw, bypassing every cache.
        for position, value in writes.items():
            key, slot = store.tiling.locate(position)
            block_id = store.tile_store.block_of(key)
            assert block_id is not None
            assert store.tile_store.device.read_block(block_id)[slot] == value

    def test_batched_execution_matches_sequential(self):
        store, __ = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=64, seed=6
        )
        queries = _mixed_workload(store.shape, seed=7)
        expected = run_naive(store, queries)["values"]
        store.drop_cache()
        store.stats.reset()
        with QueryEngine(store, num_shards=4) as engine:
            batch = engine.execute_batch(queries)
        assert batch.plan.dedup_ratio > 1.0
        # Each unique materialised tile was read exactly once.
        assert batch.block_reads == batch.plan.num_unique_tiles
        for expected_value, result in zip(expected, batch.results):
            assert result.ok
            assert _values_equal(expected_value, result.value)


class TestInlineBatch:
    """``run`` and ``execute_batch`` run their queries in the caller's
    thread."""

    def test_batch_queries_run_in_the_callers_thread(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        seen = []
        with QueryEngine(store) as engine:
            batch = engine.execute_batch(
                [CustomQuery(lambda s: seen.append(threading.get_ident()))]
                * 3
                + [PointQuery((1, 1))]
            )
            single = engine.run(
                CustomQuery(lambda s: threading.get_ident())
            ).value
        assert all(result.ok for result in batch.results)
        assert seen == [threading.get_ident()] * 3
        assert single == threading.get_ident()

    def test_raising_query_in_batch_is_contained(self):
        def boom(store):
            raise RuntimeError("custom query failed")

        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store, max_inflight=4) as engine:
            batch = engine.execute_batch(
                [PointQuery((0, 0)), CustomQuery(boom), PointQuery((3, 3))]
            )
            snap = engine.snapshot()
        statuses = [result.status for result in batch.results]
        assert statuses == ["ok", STATUS_ERROR, "ok"]
        assert "custom query failed" in batch.results[1].error
        assert snap["queries_inflight"] == 0
        assert snap["counters"]["query_errors"] == 1

    def test_close_waits_for_a_running_batch(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store)
        started, release, closed = (threading.Event() for __ in range(3))

        def held(store):
            started.set()
            assert release.wait(10)
            return "held"

        batch = []
        runner = threading.Thread(
            target=lambda: batch.append(
                engine.execute_batch([CustomQuery(held), PointQuery((2, 2))])
            )
        )
        closer = threading.Thread(
            target=lambda: (engine.close(), closed.set())
        )
        runner.start()
        assert started.wait(10)
        closer.start()
        assert not closed.wait(0.2)  # the batch is still reading
        release.set()
        runner.join(10)
        closer.join(10)
        assert closed.is_set()
        assert [result.status for result in batch[0].results] == ["ok", "ok"]
        assert engine.snapshot()["queries_inflight"] == 0
        with pytest.raises(EngineClosedError):
            engine.execute_batch([PointQuery((0, 0))])

    def test_close_waits_for_a_running_run(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store)
        started, release, closed = (threading.Event() for __ in range(3))

        def held(store):
            started.set()
            assert release.wait(10)
            return "held"

        result = []
        runner = threading.Thread(
            target=lambda: result.append(engine.run(CustomQuery(held)))
        )
        closer = threading.Thread(
            target=lambda: (engine.close(), closed.set())
        )
        runner.start()
        assert started.wait(10)
        closer.start()
        assert not closed.wait(0.2)  # the query is still reading
        release.set()
        runner.join(10)
        closer.join(10)
        assert closed.is_set()
        assert result[0].ok and result[0].value == "held"
        assert engine.snapshot()["queries_inflight"] == 0
        with pytest.raises(EngineClosedError):
            engine.run(PointQuery((0, 0)))

    def test_batch_values_equal_worker_and_direct_values(self):
        """Bit-identical values from a batch with and without a
        deadline, from ``run()`` and from the engine-free reader."""
        store, __ = build_store(shape=(64, 64), block_edge=8, seed=21)
        queries = _mixed_workload(store.shape, seed=22)
        with QueryEngine(store) as engine:
            batch = engine.execute_batch(queries)
            bounded = engine.execute_batch(queries, timeout=60.0)
            singles = [engine.run(query) for query in queries]
        fresh, __ = build_store(shape=(64, 64), block_edge=8, seed=21)
        assert any(isinstance(q, RangeSumQuery) for q in queries)
        for query, in_batch, in_bounded, single in zip(
            queries, batch.results, bounded.results, singles
        ):
            assert in_batch.ok and in_bounded.ok and single.ok
            if isinstance(query, RangeSumQuery):
                direct = range_sum_standard(fresh, query.lows, query.highs)
            else:
                direct = execute_query(fresh, query)
            assert np.array_equal(in_batch.value, in_bounded.value)
            assert np.array_equal(in_batch.value, single.value)
            assert np.array_equal(in_batch.value, direct)

    def test_cold_pool_batch_io_is_the_same_with_memo_cold_or_warm(self):
        queries = _mixed_workload((64, 64), seed=23)

        def cold_pool_batch():
            store, __ = build_store(
                shape=(64, 64), block_edge=8, pool_capacity=64, seed=24
            )
            with QueryEngine(store) as engine:
                batch = engine.execute_batch(queries)
                stats = dataclasses.asdict(store.stats)
            return stats, [result.value for result in batch.results]

        rangesum._MEMO.clear()
        cold_stats, cold_values = cold_pool_batch()
        warm_stats, warm_values = cold_pool_batch()
        assert len(cold_stats) == 7
        assert cold_stats == warm_stats
        assert cold_stats["block_reads"] > 0
        for cold, warm in zip(cold_values, warm_values):
            assert np.array_equal(cold, warm)


class TestAdmissionControl:
    def test_expired_deadline_returns_timeout_not_hang(self):
        # The batch's one deadline passes while its first query is
        # still reading: the later queries are answered at once.
        store, __ = build_store(shape=(16, 16), block_edge=4, seed=2)

        def slow(_store):
            time.sleep(0.6)
            return 0.0

        with QueryEngine(store) as engine:
            batch = engine.execute_batch(
                [CustomQuery(slow), PointQuery((3, 3)), PointQuery((4, 4))],
                timeout=0.5,
            )
            assert engine.snapshot()["queries_inflight"] == 0
        first, *later = batch.results
        assert first.ok
        for result in later:
            assert result.status == "timeout"
            assert result.value is None
            assert "deadline" in result.error
        assert engine.metrics.counter("queries_timed_out").value == 2

    def test_default_timeout_applies(self):
        store, __ = build_store(shape=(16, 16), block_edge=4, seed=2)
        engine = QueryEngine(store, default_timeout=0.0)
        try:
            result = engine.run(PointQuery((0, 0)))
            assert result.status == "timeout"
        finally:
            engine.close()


class TestLifecycle:
    def test_run_after_close_refused(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.run(PointQuery((0, 0)))
        with pytest.raises(RuntimeError):
            engine.execute_batch([PointQuery((0, 0))])

    def test_close_is_idempotent(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store)
        engine.close()
        engine.close()

    def test_close_drains_pending_work(self):
        # Four callers are inside the engine when close() starts: it
        # returns only after every one of them has its answer.
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store)
        inside = threading.Barrier(5)
        release = threading.Event()

        def held(_store):
            inside.wait(10)
            assert release.wait(10)
            return 1.0

        results = []
        callers = [
            threading.Thread(
                target=lambda: results.append(engine.run(CustomQuery(held)))
            )
            for __ in range(2)
        ] + [
            threading.Thread(
                target=lambda: results.extend(
                    engine.execute_batch(
                        [CustomQuery(held), PointQuery((1, 1))]
                    ).results
                )
            )
            for __ in range(2)
        ]
        for caller in callers:
            caller.start()
        inside.wait(10)
        closer = threading.Thread(target=engine.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()
        release.set()
        for thread in callers + [closer]:
            thread.join(10)
            assert not thread.is_alive()
        assert len(results) == 6 and all(result.ok for result in results)

    def test_engines_start_no_threads(self):
        from repro.olap.schema import Dimension
        from repro.server.hub import ServingHub

        before = threading.active_count()
        hub = ServingHub(block_slots=64, pool_blocks=32)
        hub.add_tenant("acme", api_key="acme-key")
        for index in range(4):
            hub.add_cube(
                "acme",
                f"cube{index}",
                [Dimension("x", 16), Dimension("y", 16)],
                data=np.full((16, 16), float(index)),
            )
        try:
            assert threading.active_count() == before
        finally:
            hub.close()

    def test_query_error_is_contained(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store) as engine:
            bad = engine.run(PointQuery((999, 999)))
            good = engine.run(RangeSumQuery((0, 0), (7, 7)))
        assert bad.status == "error"
        assert bad.error
        assert good.ok
        assert engine.metrics.counter("query_errors").value == 1


class TestObservability:
    def test_snapshot_reports_serving_metrics(self):
        store, __ = build_store(shape=(32, 32), block_edge=4)
        with QueryEngine(store, num_shards=4) as engine:
            engine.execute_batch(_mixed_workload(store.shape, seed=9))
        snap = engine.snapshot()
        counters = snap["counters"]
        assert counters["queries_served"] == 32
        assert counters["batches_planned"] == 1
        assert snap["planner_dedup_ratio"] > 1.0
        assert snap["histograms"]["query_latency_s"]["count"] == 32
        assert snap["pool"]["num_shards"] == 4
        assert snap["pool"]["hits"] > 0

    def test_engine_replaces_store_pool_with_sharded(self):
        from repro.service.pool import ShardedBufferPool

        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, num_shards=2)
        try:
            assert isinstance(store.tile_store.pool, ShardedBufferPool)
            assert store.tile_store.pool is engine.pool
        finally:
            engine.close()


class TestQuotaAndQueueHwm:
    """The per-tenant in-flight quota and its gauges."""

    def _blocked_engine(self, max_inflight):
        """An engine whose one admitted query is parked in another
        thread until ``gate`` is set; ``result`` receives its answer."""
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, max_inflight=max_inflight)
        gate, started = threading.Event(), threading.Event()
        result = []

        def parked(_store):
            started.set()
            return gate.wait(5)

        blocker = threading.Thread(
            target=lambda: result.append(engine.run(CustomQuery(parked)))
        )
        blocker.start()
        assert started.wait(5)
        return engine, gate, blocker, result

    def test_submit_beyond_quota_raises_quota_error(self):
        engine, gate, blocker, result = self._blocked_engine(max_inflight=2)
        try:
            assert engine.run(PointQuery((0, 0))).ok  # one slot is free
            with pytest.raises(QuotaError):
                engine.execute_batch([PointQuery((1, 1))] * 2)
            # QuotaError is an AdmissionError: generic handlers keep
            # treating it as a refusal to admit.
            assert issubclass(QuotaError, AdmissionError)
            assert engine.metrics.counter("queries_throttled").value == 2
            gate.set()
            blocker.join(5)
            assert result[0].ok
            # completed work releases the quota
            batch = engine.execute_batch([PointQuery((2, 2))] * 2)
            assert all(result.ok for result in batch.results)
        finally:
            gate.set()
            engine.close()

    def test_batch_reserves_quota_upfront(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store, max_inflight=3) as engine:
            with pytest.raises(QuotaError):
                engine.execute_batch(
                    [PointQuery((i, i)) for i in range(4)]
                )
            # the failed batch must not leak reservations
            batch = engine.execute_batch(
                [PointQuery((i, i)) for i in range(3)]
            )
            assert all(result.ok for result in batch.results)

    def test_snapshot_reports_inflight(self):
        engine, gate, blocker, __ = self._blocked_engine(max_inflight=8)
        try:
            snap = engine.snapshot()
            assert snap["queries_inflight"] == engine.queries_inflight == 1
            assert snap["gauges"]["queries_inflight"] == 1
            assert snap["gauges"]["inflight_quota"] == 8
            assert "admission_queue_hwm" not in snap
            gate.set()
            blocker.join(5)
        finally:
            gate.set()
            engine.close()
        assert engine.snapshot()["queries_inflight"] == 0

    def test_labeled_metrics_and_dedup_ratio(self):
        store, __ = build_store(shape=(32, 32), block_edge=4)
        with QueryEngine(
            store,
            metric_labels={"tenant": "acme"},
        ) as engine:
            engine.execute_batch(_mixed_workload(store.shape, seed=11))
            snap = engine.snapshot()
        assert snap["counters"]['queries_served{tenant="acme"}'] == 32
        # the dedup ratio must find the labeled series, not the bare name
        assert snap["planner_dedup_ratio"] > 1.0


class TestDeadlineDegradedReads:
    """Expired deadlines answer from resident blocks with sound bounds."""

    def _guarded_engine(self):
        from repro.service.deadline import DeadlineGuardDevice
        from repro.storage.journal import JournaledDevice

        store, data = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=13
        )
        store.tile_store.wrap_device(JournaledDevice)
        store.tile_store.wrap_device(DeadlineGuardDevice)
        engine = QueryEngine(
            store, pool_capacity=16, degrade_on_deadline=True
        )
        return engine, data

    def test_expired_deadline_cold_cache_degrades_with_bound(self):
        engine, data = self._guarded_engine()
        try:
            result = engine.run(RangeSumQuery((0, 0), (31, 31)), timeout=0.0)
            assert result.status == "degraded"
            assert result.error_bound is not None
            assert 0.0 < result.error_bound < float("inf")
            truth = float(data.sum())
            assert abs(result.value - truth) <= result.error_bound
            assert (
                engine.metrics.counter("queries_deadline_degraded").value
                == 1
            )
        finally:
            engine.close()

    def test_zero_deadline_batch_prefetches_nothing_and_degrades(self):
        engine, data = self._guarded_engine()
        queries = [
            RangeSumQuery((0, 0), (31, 31)),
            RangeSumQuery((4, 8), (19, 27)),
        ]
        try:
            batch = engine.execute_batch(queries, timeout=0.0)
            assert engine.metrics.counter("blocks_prefetched").value == 0
            assert batch.block_reads == 0
        finally:
            engine.close()
        for query, result in zip(queries, batch.results):
            assert result.status == "degraded"
            assert 0.0 < result.error_bound < float("inf")
            (x0, y0), (x1, y1) = query.lows, query.highs
            truth = float(data[x0 : x1 + 1, y0 : y1 + 1].sum())
            assert abs(result.value - truth) <= result.error_bound

    def test_expired_deadline_warm_cache_is_full_fidelity(self):
        engine, data = self._guarded_engine()
        try:
            query = RangeSumQuery((0, 7), (7, 15))
            warm = engine.run(query)  # faults the blocks in
            assert warm.ok
            again = engine.run(query, timeout=0.0)
            # every needed block is resident: the cache-only pass is
            # exact, so the answer is served ok rather than degraded
            assert again.ok
            assert again.value == warm.value
        finally:
            engine.close()

    def test_without_guard_expired_deadline_still_times_out(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store, degrade_on_deadline=True) as engine:
            result = engine.run(PointQuery((0, 0)), timeout=0.0)
        assert result.status == "timeout"
