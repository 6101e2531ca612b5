"""Query engine: in-flight quota, deadlines, caller-thread execution.

:class:`QueryEngine` turns a :class:`~repro.storage.tiled.TiledStandardStore`
into a servable endpoint:

* every query reads the store through a
  :class:`~repro.service.pool.ShardedBufferPool` (installed into the
  store on construction, replacing its single-threaded pool);
* every query runs in its **caller's thread**: :meth:`run` executes
  one query, :meth:`execute_batch` routes a batch through the
  :mod:`~repro.service.planner` — unique tiles are prefetched once (in
  block-id order, pinned for the duration of the batch), then the
  queries execute in order against the warm shared pool.  There is no
  worker pool and no admission queue: a thread handoff saves no block
  I/O and, under the GIL, only adds waiting;
* the optional **in-flight quota** (``max_inflight``) is the only
  admission gate — a call that would exceed it raises
  :class:`QuotaError` at once instead of waiting;
* every query carries an optional **deadline**; a query whose deadline
  has passed before it starts is answered with a timeout result (or
  from resident blocks), never silently executed late.  A batch fixes
  its one deadline at entry, and its prefetch wave stops there too;
* :meth:`close` refuses new calls, waits for the running ones and
  flushes every dirty block back to the device.

Latency, admission and I/O observations land in a
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.fault.breaker import CircuitBreaker
from repro.fault.retry import Retrier, RetryPolicy
from repro.obs.heat import get_heat, heat_context
from repro.obs.tracer import get_tracer
from repro.service.metrics import MetricsRegistry
from repro.service.planner import BatchPlan, plan_batch
from repro.service.pool import ShardedBufferPool
from repro.service.queries import (
    DegradedValue,
    Query,
    execute_query,
    execute_query_degraded,
)

__all__ = [
    "AdmissionError",
    "EngineClosedError",
    "QuotaError",
    "QueryResult",
    "BatchResult",
    "QueryEngine",
]

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_DEGRADED = "degraded"


class AdmissionError(RuntimeError):
    """Raised when the engine refuses to admit a query."""


class QuotaError(AdmissionError):
    """Raised when the engine's in-flight quota is exhausted (the
    serving layer answers it with HTTP 429)."""


class EngineClosedError(AdmissionError):
    """Raised when a query arrives at an engine that has been closed."""


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query execution.

    ``error_bound`` is set only for :data:`STATUS_DEGRADED` results:
    the value was computed with one or more unreadable blocks
    zero-filled and is within ``error_bound`` (absolute) of the true
    answer.  ``attempts`` counts executions including retries.
    """

    status: str
    value: Any = None
    error: Optional[str] = None
    latency_s: float = 0.0
    error_bound: Optional[float] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED


@dataclass(frozen=True)
class BatchResult:
    """Results of a planned batch plus its plan and I/O accounting."""

    results: Tuple[QueryResult, ...]
    plan: BatchPlan
    block_reads: int
    wall_s: float

    @property
    def blocks_per_query(self) -> float:
        if not self.results:
            return 0.0
        return self.block_reads / len(self.results)


class QueryEngine:
    """Query service over one standard-form tiled store.

    Every query runs in the thread that calls :meth:`run` or
    :meth:`execute_batch`; the engine starts no threads.

    Parameters
    ----------
    store:
        A :class:`TiledStandardStore` (anything exposing ``tiling``,
        ``tile_store``, ``stats`` and the region/point read methods).
    num_shards / pool_capacity:
        Sharded-pool geometry; capacity defaults to the store's
        previous pool capacity.
    default_timeout:
        Deadline (seconds) applied to calls made without one;
        ``None`` means no deadline.
    retry_policy:
        A :class:`~repro.fault.retry.RetryPolicy`; when set, transient
        ``IOError``\\ s during query execution and batch prefetch are
        retried with capped exponential backoff and jitter.  ``None``
        (the default) keeps the seed behaviour: first failure wins.
    breaker:
        A :class:`~repro.fault.breaker.CircuitBreaker`; when set,
        consecutive device failures trip it open and subsequent queries
        are answered immediately (degraded or shed) instead of piling
        onto a dead device.
    degraded_reads:
        When ``True``, a query whose retries are exhausted is re-run
        with unreadable blocks zero-filled, answering
        :data:`STATUS_DEGRADED` with an absolute ``error_bound``
        instead of :data:`STATUS_ERROR`.
    pool:
        An existing :class:`ShardedBufferPool` to serve through
        instead of building a private one — the multi-tenant serving
        layer hands every tenant engine the same pool (one shared
        memory budget over one shared device).  ``num_shards`` and
        ``pool_capacity`` are ignored when given.
    metric_labels:
        Labels stamped onto every counter/gauge/histogram series this
        engine records (e.g. ``{"tenant": "acme"}``), so engines
        sharing one :class:`MetricsRegistry` stay distinguishable.
    max_inflight:
        Admission quota: maximum queries admitted but not yet
        completed, across every concurrent :meth:`run` and
        :meth:`execute_batch` call (a batch reserves all its queries
        at entry).  Beyond it a call raises :class:`QuotaError`.
        ``None`` (default) means unbounded.
    degrade_on_deadline:
        When ``True`` and the store's device chain contains a
        :class:`~repro.service.deadline.DeadlineGuardDevice`, a query
        whose deadline expired before it started is answered from
        resident blocks only (non-resident blocks zero-filled, sound
        ``error_bound``) instead of a bare timeout.
    """

    def __init__(
        self,
        store,
        *,
        num_shards: int = 4,
        pool_capacity: Optional[int] = None,
        default_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        degraded_reads: bool = False,
        pool: Optional[ShardedBufferPool] = None,
        metric_labels: Optional[Mapping[str, object]] = None,
        max_inflight: Optional[int] = None,
        degrade_on_deadline: bool = False,
        read_only: bool = False,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._store = store
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._labels = dict(metric_labels) if metric_labels else None
        self._default_timeout = default_timeout
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._degraded_reads = degraded_reads
        self._degrade_on_deadline = degrade_on_deadline
        self._read_only = read_only
        self._deadline_guard = None
        if degrade_on_deadline:
            device = store.tile_store.device
            while device is not None:
                if hasattr(device, "cache_only"):
                    self._deadline_guard = device
                    break
                device = getattr(device, "inner", None)
        if pool is not None:
            self._pool = pool
        else:
            capacity = (
                pool_capacity
                if pool_capacity is not None
                else store.tile_store.pool.capacity
            )
            self._pool = ShardedBufferPool(
                store.tile_store.device, capacity, num_shards=num_shards
            )
        store.tile_store.set_pool(self._pool)
        self._max_inflight = max_inflight
        self._inflight = 0  # guarded-by: _inflight_lock
        self._inflight_lock = threading.Lock()
        self._closed = False  # guarded-by: _close_lock
        self._calls = 0  # guarded-by: _close_lock
        self._close_lock = threading.Lock()
        self._drained = threading.Event()
        self._calls_idle = threading.Event()
        self._calls_idle.set()
        self._batch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # labeled metric accessors
    # ------------------------------------------------------------------

    def _counter(self, name: str):
        return self._metrics.counter(name, self._labels)

    def _gauge(self, name: str):
        return self._metrics.gauge(name, self._labels)

    def _histogram(self, name: str):
        return self._metrics.histogram(name, self._labels)

    def _heat_scope(self, query_class: str):
        """Tile-heat attribution scope for work done on this thread.

        Labels every :mod:`repro.obs.heat` touch with this engine's
        tenant (from ``metric_labels``) and the given query class.  A
        no-op when no heat recorder is installed.
        """
        if get_heat() is None:
            return nullcontext()
        tenant = str(self._labels.get("tenant", "")) if self._labels else ""
        return heat_context(tenant, query_class)

    # ------------------------------------------------------------------

    @property
    def store(self):
        return self._store

    @property
    def pool(self) -> ShardedBufferPool:
        return self._pool

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def closed(self) -> bool:
        # lint: allow=lock-discipline (racy bool read for status reports; _enter() re-checks under the lock)
        return self._closed

    @property
    def read_only(self) -> bool:
        """Replica mode: the engine serves queries over blocks that
        replication replay writes beneath the pool, so it must never
        write back — :meth:`close` skips the flush, and promotion
        clears the flag before the first local update."""
        return self._read_only

    @read_only.setter
    def read_only(self, value: bool) -> None:
        self._read_only = bool(value)

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self._breaker

    @property
    def max_inflight(self) -> Optional[int]:
        return self._max_inflight

    @property
    def queries_inflight(self) -> int:
        """Queries admitted and not yet completed."""
        with self._inflight_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _deadline_for(self, timeout: Optional[float]) -> Optional[float]:
        if timeout is None:
            timeout = self._default_timeout
        if timeout is None:
            return None
        return time.monotonic() + timeout

    def _reserve_inflight(self, count: int) -> None:
        """Claim ``count`` in-flight slots or raise :class:`QuotaError`."""
        with self._inflight_lock:
            if (
                self._max_inflight is not None
                and self._inflight + count > self._max_inflight
            ):
                available = self._max_inflight - self._inflight
                self._counter("queries_throttled").inc(count)
                raise QuotaError(
                    f"in-flight quota exhausted ({self._inflight} of "
                    f"{self._max_inflight} in flight, {available} free, "
                    f"{count} requested)"
                )
            self._inflight += count

    def _release_inflight(self, count: int = 1) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - count)

    def run(
        self, query: Query, timeout: Optional[float] = None
    ) -> QueryResult:
        """Execute one query in the calling thread and return its result.

        Raises :class:`QuotaError` when the in-flight quota is exhausted
        and :class:`EngineClosedError` after :meth:`close`; every
        failure of the query itself is answered as a result.
        """
        arrived_s = time.perf_counter()
        deadline = self._deadline_for(timeout)
        self._enter()
        try:
            self._reserve_inflight(1)
            self._counter("queries_submitted").inc()
            return self._run_admitted(query, deadline, arrived_s)
        finally:
            self._exit()

    def _enter(self) -> None:
        """Register a running call, or raise after :meth:`close`.

        Checked and counted under the lock that flips ``_closed``, so
        every call either starts before the flip (and :meth:`close`
        waits for it) or is refused."""
        with self._close_lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
            self._calls += 1
            self._calls_idle.clear()

    def _exit(self) -> None:
        with self._close_lock:
            self._calls -= 1
            if not self._calls:
                self._calls_idle.set()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _run_admitted(
        self, query: Query, deadline: Optional[float], arrived_s: float
    ) -> QueryResult:
        """Execute an admitted query, then release its in-flight slot.

        ``admission_wait_s`` records the time from ``arrived_s`` to the
        start of execution: the close-barrier and quota checks for
        :meth:`run`, nothing for a batch's queries (their batch was
        admitted as a whole before planning)."""
        try:
            return self._execute(query, deadline, arrived_s)
        finally:
            self._release_inflight(1)

    def _execute(
        self, query: Query, deadline: Optional[float], arrived_s: float
    ) -> QueryResult:
        wait_s = time.perf_counter() - arrived_s
        self._histogram("admission_wait_s").record(wait_s)
        with self._heat_scope(type(query).__name__), get_tracer().span(
            "query",
            kind=type(query).__name__,
            admission_wait_s=wait_s,
        ) as span:
            if deadline is not None and time.monotonic() >= deadline:
                degraded = self._answer_from_cache(query)
                if degraded is not None:
                    self._counter("queries_deadline_degraded").inc()
                    self._counter("queries_served").inc()
                    if degraded.status == STATUS_DEGRADED:
                        self._counter("queries_degraded").inc()
                    span.set(status=degraded.status)
                    if degraded.error:
                        span.set(error=degraded.error)
                    return degraded
                self._counter("queries_timed_out").inc()
                span.set(status=STATUS_TIMEOUT)
                return QueryResult(
                    status=STATUS_TIMEOUT,
                    error="deadline expired before execution",
                )
            started = time.perf_counter()
            try:
                result = self._serve(query)
            except Exception as exc:  # a failing query is an answer
                result = QueryResult(status=STATUS_ERROR, error=str(exc))
            latency = time.perf_counter() - started
            result = QueryResult(
                status=result.status,
                value=result.value,
                error=result.error,
                latency_s=latency,
                error_bound=result.error_bound,
                attempts=result.attempts,
            )
            self._histogram("query_latency_s").record(latency)
            if result.status == STATUS_OK:
                self._counter("queries_served").inc()
            elif result.status == STATUS_DEGRADED:
                self._counter("queries_served").inc()
                self._counter("queries_degraded").inc()
            else:
                self._counter("query_errors").inc()
            span.set(status=result.status)
            if result.error:
                span.set(error=result.error)
            if result.attempts > 1:
                span.set(attempts=result.attempts)
            return result

    def _serve(self, query: Query) -> QueryResult:
        """Execute one query through the resilience ladder.

        Ladder: circuit-breaker admission -> (retried) execution ->
        degraded re-execution.  Returns a :class:`QueryResult` without
        latency (the caller stamps it).
        """
        breaker = self._breaker
        if breaker is not None and not breaker.allow():
            # Device is presumed down: answer without touching it
            # rather than piling retries onto a dead disk.
            self._counter("queries_shed").inc()
            if self._degraded_reads:
                outcome = execute_query_degraded(self._store, query)
                if isinstance(outcome, DegradedValue):
                    return QueryResult(
                        status=STATUS_DEGRADED,
                        value=outcome.value,
                        error="circuit breaker open; unreadable blocks "
                        "zero-filled",
                        error_bound=outcome.error_bound,
                    )
                return QueryResult(status=STATUS_OK, value=outcome)
            return QueryResult(
                status=STATUS_ERROR,
                error="circuit breaker open: device unavailable",
                attempts=0,
            )
        attempts = 1
        retrier = (
            Retrier(self._retry_policy)
            if self._retry_policy is not None
            else None
        )
        try:
            if retrier is not None:
                value = retrier.call(
                    lambda: execute_query(self._store, query)
                )
            else:
                value = execute_query(self._store, query)
        except IOError as exc:
            if retrier is not None and retrier.retries:
                attempts += retrier.retries
                self._counter("io_retries").inc(retrier.retries)
            if breaker is not None:
                breaker.on_failure()
            if self._degraded_reads:
                outcome = execute_query_degraded(self._store, query)
                attempts += 1
                if isinstance(outcome, DegradedValue):
                    return QueryResult(
                        status=STATUS_DEGRADED,
                        value=outcome.value,
                        error=str(exc),
                        error_bound=outcome.error_bound,
                        attempts=attempts,
                    )
                # The fault was transient and the degraded pass read
                # everything after all: a full-fidelity answer.
                if breaker is not None:
                    breaker.on_success()
                return QueryResult(
                    status=STATUS_OK, value=outcome, attempts=attempts
                )
            return QueryResult(
                status=STATUS_ERROR, error=str(exc), attempts=attempts
            )
        if retrier is not None and retrier.retries:
            attempts += retrier.retries
            self._counter("io_retries").inc(retrier.retries)
        if breaker is not None:
            breaker.on_success()
        return QueryResult(status=STATUS_OK, value=value, attempts=attempts)

    def _answer_from_cache(self, query: Query) -> Optional[QueryResult]:
        """Deadline-expired fallback: answer from resident blocks only.

        Requires ``degrade_on_deadline`` and a
        :class:`~repro.service.deadline.DeadlineGuardDevice` in the
        store's device chain.  The query is re-run inside the guard's
        ``cache_only`` scope: buffer-pool hits answer normally, device
        reads are refused, refused blocks are zero-filled and the
        degraded collector prices them into a sound ``error_bound``.
        Returns ``None`` when the machinery is unavailable or the
        cache-only pass itself fails — the caller falls back to a bare
        timeout.
        """
        if not self._degrade_on_deadline or self._deadline_guard is None:
            return None
        started = time.perf_counter()
        try:
            with self._deadline_guard.cache_only():
                outcome = execute_query_degraded(self._store, query)
        except Exception:  # fall back to the plain timeout answer
            return None
        latency = time.perf_counter() - started
        if isinstance(outcome, DegradedValue):
            return QueryResult(
                status=STATUS_DEGRADED,
                value=outcome.value,
                error="deadline expired; non-resident blocks zero-filled",
                latency_s=latency,
                error_bound=outcome.error_bound,
            )
        # Every block the query needed was already resident: the
        # cache-only pass produced a full-fidelity answer for free.
        return QueryResult(
            status=STATUS_OK, value=outcome, latency_s=latency
        )

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def execute_batch(
        self,
        queries: Sequence[Query],
        timeout: Optional[float] = None,
    ) -> BatchResult:
        """Plan, prefetch and execute a batch of queries.

        The planner dedups block fetches across the batch; every unique
        materialised tile is faulted in exactly once (in block-id
        order) and pinned so concurrent eviction cannot force a
        re-read mid-batch.  The queries then execute in the calling
        thread, in order, each through the same deadline check and
        resilience ladder as :meth:`run`.  One deadline, fixed at entry,
        covers the whole batch: the prefetch wave stops fetching once it
        has passed, and the queries left then answer from resident
        blocks or time out.  :meth:`close` waits for a running batch
        before it flushes the pool.
        """
        deadline = self._deadline_for(timeout)
        queries = list(queries)
        self._enter()
        try:
            return self._execute_batch(queries, deadline)
        finally:
            self._exit()

    def _execute_batch(
        self, queries: List[Query], deadline: Optional[float]
    ) -> BatchResult:
        # The whole batch's quota is reserved up front (all-or-nothing:
        # a tenant cannot half-admit a batch and starve its own tail).
        # Each query releases its slot as it finishes; anything never
        # executed is released on the failure path below.
        self._reserve_inflight(len(queries))
        executed = 0
        tracer = get_tracer()
        started = time.perf_counter()
        before = self._store.stats.snapshot()
        try:
            with tracer.span("batch", queries=len(queries)) as batch_span:
                with tracer.span("batch.plan"):
                    plan = plan_batch(self._store, queries)
                batch_span.set(
                    unique_tiles=plan.num_unique_tiles,
                    tile_refs=plan.total_tile_refs,
                    dedup_ratio=plan.dedup_ratio,
                )
                self._counter("batches_planned").inc()
                self._counter("planned_tile_refs").inc(
                    plan.total_tile_refs
                )
                self._counter("planned_unique_tiles").inc(
                    plan.num_unique_tiles
                )
                # One prefetch wave at a time; the pins, not the lock,
                # keep the wave resident while the queries execute.
                with self._batch_lock:
                    with tracer.span("batch.prefetch") as prefetch_span:
                        pinned = self._prefetch(plan, deadline)
                        prefetch_span.set(blocks=len(pinned))
                try:
                    self._counter("queries_submitted").inc(len(queries))
                    outcomes = []
                    for query in queries:
                        executed += 1
                        outcomes.append(
                            self._run_admitted(
                                query, deadline, time.perf_counter()
                            )
                        )
                    results = tuple(outcomes)
                finally:
                    for block_id in pinned:
                        self._pool.unpin(block_id)
        except BaseException:
            self._release_inflight(len(queries) - executed)
            raise
        wall = time.perf_counter() - started
        delta = self._store.stats.delta_since(before)
        self._histogram("batch_wall_s").record(wall)
        if queries:
            self._histogram("blocks_per_query").record(
                delta.block_reads / len(queries)
            )
        return BatchResult(
            results=results,
            plan=plan,
            block_reads=delta.block_reads,
            wall_s=wall,
        )

    def _prefetch(
        self, plan: BatchPlan, deadline: Optional[float]
    ) -> List[int]:
        """Fault in and pin every materialised tile of the plan once.

        Never-written tiles have no block (they read as zeros for
        free) and are skipped; once ``deadline`` has passed no further
        block is fetched.  Returns the pinned block ids.
        """
        tile_store = self._store.tile_store
        block_ids = sorted(
            block_id
            for block_id in (
                tile_store.block_of(key) for key in plan.unique_tiles
            )
            if block_id is not None
        )
        pinned: List[int] = []
        with self._heat_scope("prefetch"):
            for block_id in block_ids:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                try:
                    if self._retry_policy is not None:
                        retrier = Retrier(self._retry_policy)
                        retrier.call(
                            lambda b=block_id: self._pool.fetch_and_pin(b)
                        )
                        if retrier.retries:
                            self._counter("io_retries").inc(
                                retrier.retries
                            )
                    else:
                        self._pool.fetch_and_pin(block_id)
                except IOError:
                    # Prefetch is an optimisation: an unreadable block
                    # is skipped here and handled by the per-query
                    # resilience ladder (retry / degrade) when a query
                    # touches it.
                    self._counter("prefetch_skipped").inc()
                    continue
                pinned.append(block_id)
        self._counter("blocks_prefetched").inc(len(pinned))
        return pinned

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse new calls, wait for the running ones, flush dirty blocks.

        Idempotent and concurrent-safe: exactly one caller performs the
        shutdown; every other (and every later) caller blocks until it
        has finished, so "close returned" always means "running calls
        finished, dirty blocks flushed".  Every query runs in its
        caller's thread: a :meth:`run` or :meth:`execute_batch` that
        started before ``close()`` completes (or times out against its
        deadline) before the pool is flushed, and one that starts after
        it raises :class:`EngineClosedError`.
        """
        with self._close_lock:
            if self._closed:
                self._drained.wait()
                return
            self._closed = True
        self._calls_idle.wait()
        if not self._read_only:
            with get_tracer().span("engine.flush"):
                self._pool.flush()
        self._drained.set()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def refresh_gauges(self) -> None:
        """Publish current pool/in-flight occupancy into the registry's
        gauges (pull-style: refreshed on snapshot rather than on every
        pool operation, which would serialise the hot path)."""
        self._gauge("pool_resident_blocks").set(self._pool.resident)
        self._gauge("pool_dirty_blocks").set(self._pool.dirty)
        self._gauge("pool_pinned_blocks").set(self._pool.pinned)
        self._gauge("queries_inflight").set(self.queries_inflight)
        if self._max_inflight is not None:
            self._gauge("inflight_quota").set(self._max_inflight)
        if self._breaker is not None:
            self._gauge("breaker_state").set(
                self._breaker.state_code
            )

    def snapshot(self) -> dict:
        """Engine metrics + sharded-pool stats in one dict."""
        self.refresh_gauges()
        report = self._metrics.snapshot()
        report["pool"] = self._pool.snapshot()
        if self._breaker is not None:
            report["breaker"] = self._breaker.snapshot()
        device = self._store.tile_store.device
        while device is not None:  # walk wrapper layers to the injector
            fault_counts = getattr(device, "fault_counts", None)
            if fault_counts is not None:
                report["faults"] = fault_counts()
                break
            device = getattr(device, "inner", None)
        device = self._store.tile_store.device
        while device is not None:  # walk to the mmap arena, if any
            telemetry = getattr(device, "telemetry", None)
            if callable(telemetry):
                report["arena"] = telemetry()
                break
            device = getattr(device, "inner", None)
        # Read the series through the labeled accessors: under
        # metric_labels the snapshot keys carry a `{...}` suffix, so a
        # bare-name lookup would silently miss them.
        refs = self._counter("planned_tile_refs").value
        unique = self._counter("planned_unique_tiles").value
        report["planner_dedup_ratio"] = refs / unique if unique else 1.0
        report["queries_inflight"] = self.queries_inflight
        return report
