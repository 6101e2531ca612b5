"""Workload replay: drive the query service and report what it saved.

Builds a tiled store from synthetic data, generates a mixed
point/range-sum/region workload from :mod:`repro.datasets.workloads`,
then executes it twice:

* **naive** — one query at a time, cold cache before each (the cost
  model of N independent clients hitting an unbatched, uncached
  engine);
* **batched** — through :class:`~repro.service.engine.QueryEngine`:
  planner dedup, one pinned prefetch per unique block, then every
  query over the sharded pool in the calling thread.

The report quantifies the serving-layer claim that rides on the
paper's tiling: overlapping root paths mean a batch reads far fewer
blocks than the sum of its queries' individual footprints.  Results
are cross-checked between the two paths before anything is reported.

``python -m repro serve-replay`` prints the report as JSON;
``benchmarks/bench_service_throughput.py`` asserts on it.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.synthetic import random_cube, zipf_cube
from repro.datasets.workloads import point_workload, range_workload
from repro.obs import (
    IO_FIELDS,
    get_tracer,
    io_receipt,
    query_receipts,
    to_chrome_trace,
    to_prometheus,
    tracing,
)
from repro.fault.breaker import CircuitBreaker
from repro.fault.device import FaultyBlockDevice
from repro.fault.retry import RetryPolicy
from repro.service.engine import QueryEngine
from repro.service.queries import (
    PointQuery,
    Query,
    RangeSumQuery,
    RegionQuery,
    execute_query,
)
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked

__all__ = [
    "build_store",
    "build_workload",
    "run_naive",
    "replay",
]


def build_store(
    shape: Sequence[int] = (64, 64),
    block_edge: int = 8,
    pool_capacity: int = 32,
    dataset: str = "zipf",
    seed: int = 0,
) -> Tuple[TiledStandardStore, np.ndarray]:
    """A loaded standard-form tiled store plus its ground-truth data."""
    shape = tuple(int(extent) for extent in shape)
    if dataset == "zipf":
        data = zipf_cube(shape, seed=seed)
    elif dataset == "random":
        data = random_cube(shape, seed=seed)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    store = TiledStandardStore(
        shape, block_edge=block_edge, pool_capacity=pool_capacity
    )
    chunk_shape = tuple(min(block_edge, extent) for extent in shape)
    transform_standard_chunked(store, data, chunk_shape)
    store.flush()
    store.stats.reset()
    return store, data


def build_workload(
    shape: Sequence[int],
    points: int = 32,
    range_sums: int = 16,
    regions: int = 16,
    skew: float = 1.0,
    selectivity: float = 0.15,
    seed: int = 0,
) -> List[Query]:
    """A reproducible mixed workload, interleaved round-robin so every
    prefix of the batch is mixed (as an online arrival order would be)."""
    shape = tuple(int(extent) for extent in shape)
    point_queries: List[Query] = [
        PointQuery(position)
        for position in point_workload(shape, points, skew=skew, seed=seed)
    ]
    sum_queries: List[Query] = [
        RangeSumQuery(lows, highs)
        for lows, highs in range_workload(
            shape, range_sums, selectivity=selectivity, seed=seed + 1
        )
    ]
    region_queries: List[Query] = [
        RegionQuery(lows, tuple(high + 1 for high in highs))
        for lows, highs in range_workload(
            shape, regions, selectivity=selectivity, seed=seed + 2
        )
    ]
    queues = [point_queries, sum_queries, region_queries]
    mixed: List[Query] = []
    while any(queues):
        for queue in queues:
            if queue:
                mixed.append(queue.pop(0))
    return mixed


def _results_match(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.allclose(left, right, atol=1e-9)
    return bool(np.isclose(left, right, atol=1e-9))


def _within_bound(truth, value, bound: Optional[float]) -> bool:
    """Is a degraded answer within its self-reported absolute bound?"""
    if bound is None or not np.isfinite(bound):
        return False
    if isinstance(truth, np.ndarray) or isinstance(value, np.ndarray):
        return bool(np.max(np.abs(np.asarray(truth) - np.asarray(value))) <= bound + 1e-9)
    return bool(abs(truth - value) <= bound + 1e-9)


def run_naive(store, queries: Sequence[Query]) -> dict:
    """One-query-at-a-time baseline: cold cache before every query,
    sequential execution, no sharing.  Returns values and I/O costs."""
    values = []
    tracer = get_tracer()
    before = store.stats.snapshot()
    started = time.perf_counter()
    for query in queries:
        store.drop_cache()  # every query pays its own full footprint
        with tracer.span("naive.query", kind=type(query).__name__):
            values.append(execute_query(store, query))
    wall = time.perf_counter() - started
    delta = store.stats.delta_since(before)
    return {
        "values": values,
        "block_reads": delta.block_reads,
        "blocks_per_query": (
            delta.block_reads / len(queries) if queries else 0.0
        ),
        "wall_s": wall,
        "throughput_qps": len(queries) / wall if wall > 0 else 0.0,
    }


def replay(
    shape: Sequence[int] = (64, 64),
    block_edge: int = 8,
    pool_capacity: int = 64,
    points: int = 32,
    range_sums: int = 16,
    regions: int = 16,
    num_shards: int = 4,
    skew: float = 1.0,
    selectivity: float = 0.15,
    dataset: str = "zipf",
    seed: int = 0,
    trace: bool = False,
    trace_path: Optional[str] = None,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
) -> dict:
    """Run the full naive-vs-batched comparison; return the report.

    With ``fault_rate > 0`` the batched phase runs against a device
    injecting transient read faults at that probability, served by a
    self-healing engine (retry with backoff, circuit breaker, degraded
    reads).  Ground truth comes from the fault-free naive phase; every
    batched result is then classified as exactly one of
    retried-to-success (value matches truth), degraded-within-bound
    (``|value - truth| <= error_bound``), or a definite error — the
    report's ``fault`` section counts each class, and ``fault.wrong``
    (answers that are none of the three) must be zero for the run to be
    considered correct.

    With ``trace=True`` (implied by ``trace_path``) the serving phase
    runs under a fresh tracer: the report gains a ``"trace"`` section
    with the aggregate I/O receipt, per-query receipts, and a
    ``lossless`` flag asserting that the receipt total equals the exact
    global :class:`IOStats` delta of the traced region, plus a
    ``"prometheus"`` text rendering of the engine metrics.  When
    ``trace_path`` is given, the Chrome trace-event JSON is also
    written there (loadable in Perfetto).
    """
    store, __ = build_store(
        shape,
        block_edge=block_edge,
        pool_capacity=pool_capacity,
        dataset=dataset,
        seed=seed,
    )
    queries = build_workload(
        store.shape,
        points=points,
        range_sums=range_sums,
        regions=regions,
        skew=skew,
        selectivity=selectivity,
        seed=seed,
    )
    config = {
        "shape": list(store.shape),
        "block_edge": block_edge,
        "pool_capacity": pool_capacity,
        "num_shards": num_shards,
        "dataset": dataset,
        "queries": len(queries),
        "points": points,
        "range_sums": range_sums,
        "regions": regions,
        "seed": seed,
    }
    if fault_rate > 0:
        config["fault_rate"] = fault_rate
        config["fault_seed"] = fault_seed
    if not (trace or trace_path):
        report, __ = _serve(
            store,
            queries,
            num_shards=num_shards,
            pool_capacity=pool_capacity,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
        )
        report["config"] = config
        return report

    with tracing() as tracer:
        report, expected = _serve(
            store,
            queries,
            num_shards=num_shards,
            pool_capacity=pool_capacity,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
        )
    report["config"] = config
    spans = tracer.spans()
    receipt = io_receipt(spans, tracer.orphan_io)
    lossless = all(
        receipt["total"][field] == expected[field] for field in IO_FIELDS
    )
    report["trace"] = {
        "spans": len(spans),
        "dropped_spans": tracer.store.dropped,
        "receipt": receipt,
        "queries": query_receipts(spans),
        "expected_io": expected,
        "lossless": lossless,
    }
    report["prometheus"] = to_prometheus(report["metrics"])
    if trace_path:
        chrome = to_chrome_trace(
            spans,
            orphan_io=tracer.orphan_io,
            dropped=tracer.store.dropped,
            process_name="repro.serve-replay",
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle)
        report["trace"]["path"] = trace_path
    return report


def _serve(
    store,
    queries: Sequence[Query],
    num_shards: int,
    pool_capacity: int,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
) -> Tuple[dict, dict]:
    """Serve the workload naively then batched over ``store``.

    Returns the report (without its ``config`` section) plus the exact
    per-field I/O totals of everything executed here — accumulated
    *across* the mid-run ``stats.reset()``, so a tracer covering this
    call can be checked for lossless attribution against it.
    """
    expected = {field: 0 for field in IO_FIELDS}

    base = store.stats.snapshot()
    naive = run_naive(store, queries)
    store.drop_cache()
    phase = store.stats.delta_since(base)
    for field in IO_FIELDS:
        expected[field] += getattr(phase, field)
    store.stats.reset()

    faulty = None
    engine_kwargs = {}
    if fault_rate > 0:
        # Truth is in hand (fault-free naive phase); now pull the rug:
        # every device read rolls a transient failure, and the engine
        # must still answer every query definitively.
        def _inject(device):
            nonlocal faulty
            faulty = FaultyBlockDevice(
                device, seed=fault_seed, read_error_rate=fault_rate
            )
            return faulty

        store.tile_store.wrap_device(_inject)
        engine_kwargs = {
            "retry_policy": RetryPolicy(
                max_attempts=4, base_delay_s=0.0002, seed=fault_seed
            ),
            "breaker": CircuitBreaker(failure_threshold=16),
            "degraded_reads": True,
        }

    engine = QueryEngine(
        store,
        num_shards=num_shards,
        pool_capacity=pool_capacity,
        **engine_kwargs,
    )
    try:
        batch = engine.execute_batch(queries)
    finally:
        engine.close()

    mismatches = 0
    fault_report = None
    if fault_rate > 0:
        recovered = degraded = definite_errors = wrong = 0
        for truth, result in zip(naive["values"], batch.results):
            if result.ok:
                if _results_match(truth, result.value):
                    recovered += 1
                else:
                    wrong += 1
            elif result.degraded:
                if _within_bound(truth, result.value, result.error_bound):
                    degraded += 1
                else:
                    wrong += 1
            else:
                definite_errors += 1
        mismatches = wrong
        fault_report = {
            "fault_rate": fault_rate,
            "injected": faulty.fault_counts() if faulty is not None else {},
            "recovered_ok": recovered,
            "degraded_within_bound": degraded,
            "definite_errors": definite_errors,
            "wrong": wrong,
        }
    else:
        mismatches = sum(
            1
            for naive_value, result in zip(naive["values"], batch.results)
            if not (result.ok and _results_match(naive_value, result.value))
        )

    batched = {
        "block_reads": batch.block_reads,
        "blocks_per_query": batch.blocks_per_query,
        "wall_s": batch.wall_s,
        "throughput_qps": (
            len(queries) / batch.wall_s if batch.wall_s > 0 else 0.0
        ),
        "dedup_ratio": batch.plan.dedup_ratio,
        "unique_tiles": batch.plan.num_unique_tiles,
        "tile_refs": batch.plan.total_tile_refs,
    }
    naive_report = {k: v for k, v in naive.items() if k != "values"}
    final = store.stats.snapshot()
    for field in IO_FIELDS:
        expected[field] += getattr(final, field)
    report = {
        "naive": naive_report,
        "batched": batched,
        "block_read_savings": (
            naive["block_reads"] / batch.block_reads
            if batch.block_reads
            else float("inf")
        ),
        "results_match": mismatches == 0,
        "mismatches": mismatches,
        "metrics": engine.snapshot(),
    }
    if fault_report is not None:
        report["fault"] = fault_report
    return report, expected
