"""Concurrent wavelet query service (the serving layer).

Everything below :mod:`repro.service` treats the rest of the library
as an engine room: the tilings say which blocks a query needs, the
stores move blocks, and this package turns that into a servable
endpoint — a batched planner that dedups block fetches across queries,
a thread-safe sharded buffer pool, an engine that runs every query in
its caller's thread under an in-flight quota and deadlines, serving
metrics, and a workload replay driver (``python -m repro
serve-replay``).

Typical use::

    from repro.service import QueryEngine, PointQuery, RangeSumQuery

    engine = QueryEngine(store, num_shards=4)
    batch = engine.execute_batch([PointQuery((3, 5)),
                                  RangeSumQuery((0, 0), (15, 15))])
    print(batch.plan.dedup_ratio, batch.results[0].value)
    engine.close()
"""

from repro.service.engine import (
    AdmissionError,
    BatchResult,
    EngineClosedError,
    QueryEngine,
    QueryResult,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.planner import BatchPlan, QueryPlan, plan_batch, tiles_for_query
from repro.service.pool import ShardedBufferPool
from repro.service.queries import (
    CustomQuery,
    DegradedValue,
    PointQuery,
    Query,
    RangeSumQuery,
    RegionQuery,
    execute_query,
    execute_query_degraded,
    query_weight_bound,
)
from repro.service.replay import build_store, build_workload, replay, run_naive

__all__ = [
    "AdmissionError",
    "BatchPlan",
    "BatchResult",
    "Counter",
    "CustomQuery",
    "DegradedValue",
    "EngineClosedError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PointQuery",
    "Query",
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "RangeSumQuery",
    "RegionQuery",
    "ShardedBufferPool",
    "build_store",
    "build_workload",
    "execute_query",
    "execute_query_degraded",
    "plan_batch",
    "query_weight_bound",
    "replay",
    "run_naive",
    "tiles_for_query",
]
