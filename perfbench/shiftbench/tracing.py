"""Per-layer tracing installed from outside the program.

:class:`Instrumentation` replaces public functions and methods of each
layer with wrappers that open a span around the original call, and puts
the originals back afterwards; the program's source is untouched.  A
span records its name, start, end, parent and request id (the id of its
root span); counts (``IOStats`` deltas, coefficients read, journal
bytes) are charged to the innermost open span of the calling thread.
Spans are kept in memory and exported as a Chrome trace at the end of
the run; per-layer totals (calls, inclusive time, self time, counts)
are accumulated as spans close.

Engine workers run ``execute_query`` on their own threads.  Their spans
are parented to the open ``execute_batch`` span of the engine whose
store they read: every tenant has its own engine and exactly one
closed-loop client, so that span is unique.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("server.app.self_ms", "ms", "lower"),
    ("server.app.serialize_ms", "ms", "lower"),
    ("server.slicer.compile_ms", "ms", "lower"),
    ("server.slicer.cells_per_request", "count", "higher"),
    ("service.planner.plan_ms", "ms", "lower"),
    ("service.planner.tile_refs_per_batch", "count", "lower"),
    ("service.planner.unique_tiles_per_batch", "count", "lower"),
    ("service.engine.batch_ms", "ms", "lower"),
    ("service.engine.handoff_ms", "ms", "lower"),
    ("service.engine.admission_wait_ms", "ms", "lower"),
    ("service.engine.throttled", "count", "lower"),
    ("service.queries.execute_ms", "ms", "lower"),
    ("service.queries.coeff_reads_per_query", "count", "lower"),
    ("service.pool.prefetch_ms", "ms", "lower"),
    ("service.pool.hit_rate", "ratio", "higher"),
    ("service.pool.misses_per_op", "count", "lower"),
    ("service.pool.evictions_per_op", "count", "lower"),
    ("server.hub.update_ms", "ms", "lower"),
    ("server.hub.update_other_ms", "ms", "lower"),
    ("olap.cube.update_ms", "ms", "lower"),
    ("update.batch.shift_split_ms", "ms", "lower"),
    ("update.batch.block_reads_per_op", "count", "lower"),
    ("update.batch.block_writes_per_op", "count", "lower"),
    ("storage.journal.write_batch_ms", "ms", "lower"),
    ("storage.journal.journal_writes_per_update", "count", "lower"),
    ("storage.journal.log_bytes_per_update", "B", "lower"),
    ("service.pool.flush_ms", "ms", "lower"),
    ("storage.mmap_device.sync_ms", "ms", "lower"),
    ("server.persist.save_state_ms", "ms", "lower"),
    ("server.persist.sidecar_bytes", "B", "lower"),
    ("core.plans.builds", "count", "lower"),
    ("core.plans.build_s", "s", "lower"),
    ("core.plans.hit_rate", "ratio", "higher"),
    ("transform.chunked.standard_s", "s", "lower"),
    ("transform.chunked.standard_block_reads", "count", "lower"),
    ("transform.chunked.standard_block_writes", "count", "lower"),
    ("transform.chunked.nonstandard_s", "s", "lower"),
    ("transform.chunked.nonstandard_block_reads", "count", "lower"),
    ("transform.chunked.nonstandard_block_writes", "count", "lower"),
    ("append.appender.append_ms", "ms", "lower"),
    ("append.expansion.expand_s", "s", "lower"),
    ("append.expansion.share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

#: Root span the workloads open around every timed operation.
OP = "op"

_IO_FIELDS = ("block_reads", "block_writes", "journal_writes")


class Span:
    """One timed call of a layer; ``request`` is its root span's id."""

    __slots__ = (
        "sid", "name", "start", "end", "parent", "request", "tid",
        "children", "counts",
    )


class LayerTotals:
    """What every span of one name added up to."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)


def covered_seconds(
    intervals: Sequence[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class SpanTracer:
    """In-memory span store with online per-layer totals."""

    def __init__(self, keep: int = 200_000) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._keep = keep
        self.records: List[tuple] = []
        self.dropped = 0
        self.layers: Dict[str, LayerTotals] = {}
        #: Open ``execute_batch`` span per engine store (cross-thread
        #: parent for worker spans).
        self.active: Dict[int, Span] = {}
        #: Wrapped functions the program no longer has.
        self.unwrapped: set = set()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span()
        span.sid = next(self._ids)
        span.name = name
        span.parent = parent
        span.request = parent.request if parent is not None else span.sid
        span.tid = threading.get_ident()
        span.children = []
        span.counts = {}
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        duration = span.end - span.start
        self_s = duration - covered_seconds(
            span.children, span.start, span.end
        )
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        with self._lock:
            totals = self.layers.get(span.name)
            if totals is None:
                totals = self.layers[span.name] = LayerTotals()
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += self_s
            for key, value in span.counts.items():
                totals.counts[key] = totals.counts.get(key, 0.0) + value
            if len(self.records) < self._keep:
                self.records.append(
                    (
                        span.sid,
                        span.name,
                        span.start,
                        span.end,
                        span.parent.sid if span.parent is not None else 0,
                        span.request,
                        span.tid,
                        dict(span.counts),
                    )
                )
            else:
                self.dropped += 1

    def count(self, key: str, amount: float) -> None:
        """Charge ``amount`` of ``key`` to this thread's open span."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0.0) + amount

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name) or LayerTotals()

    def chrome_trace(self) -> dict:
        """The kept spans as a Chrome trace (loads in Perfetto)."""
        threads: Dict[int, int] = {}
        events = []
        for sid, name, start, end, parent, request, tid, counts in (
            self.records
        ):
            args = {"span": sid, "parent": parent, "request": request}
            args.update(counts)
            events.append(
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": threads.setdefault(tid, len(threads) + 1),
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.server.app`` so
    that its ``dumps`` calls open spans."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Instrumentation:
    """Installs and removes the layer wrappers for one traced phase.

    ``journals`` are :class:`~repro.storage.journal.WriteAheadJournal`
    instances whose committed bytes are counted through their
    ``on_commit`` observer.
    """

    def __init__(self, tracer: SpanTracer, journals: Sequence = ()) -> None:
        self._tracer = tracer
        self._journals = list(journals)
        self._patches: List[Tuple[object, str, object]] = []
        self._observers: List[Tuple[object, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            # A layer the program no longer has: its metrics read 0 and
            # the run's report names it.
            self._tracer.unwrapped.add(
                f"{getattr(owner, '__name__', owner)}.{attr}"
            )
            return
        self._patch(owner, attr, self._wrapped(original, name, **options))

    def _wrapped(
        self,
        original: Callable,
        name: str,
        parent_of: Optional[Callable] = None,
        io_of: Optional[Callable] = None,
        register: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        tracer = self._tracer

        def wrapper(*args, **kwargs):
            parent = parent_of(args) if parent_of is not None else None
            span = tracer.open(name, parent)
            key = register(args) if register is not None else None
            if key is not None:
                tracer.active[key] = span
            stats = io_of(args) if io_of is not None else None
            before = stats.snapshot() if stats is not None else None
            try:
                result = original(*args, **kwargs)
                if before is not None:
                    delta = stats.delta_since(before)
                    for field in _IO_FIELDS:
                        span.counts[field] = (
                            span.counts.get(field, 0.0)
                            + getattr(delta, field)
                        )
                if after is not None:
                    after(span, result)
                return result
            finally:
                if key is not None:
                    tracer.active.pop(key, None)
                tracer.close(span)

        return wrapper

    def install(self) -> None:
        import repro.append.expansion as expansion
        import repro.server.app as app_module
        import repro.server.persist as persist
        import repro.service.engine as engine_module
        import repro.transform.chunked as chunked
        import repro.update.batch as batch
        from repro.append.appender import StandardAppender
        from repro.olap.cube import WaveletCube
        from repro.server.app import ServingApp
        from repro.server.hub import ServingHub
        from repro.service.engine import QueryEngine
        from repro.service.pool import ShardedBufferPool
        from repro.storage.journal import JournaledDevice
        from repro.storage.mmap_device import MmapBlockDevice
        from repro.storage.tiled import TiledStandardStore

        tracer = self._tracer

        def first_stats(args):
            return args[0].stats

        def set_count(key, value_of):
            def after(span, result):
                span.counts[key] = span.counts.get(key, 0.0) + value_of(result)

            return after

        self._span(ServingApp, "__call__", "server.app")
        self._span(app_module, "parse_cuts", "server.slicer.parse_cuts")
        self._span(
            app_module, "parse_drilldowns", "server.slicer.parse_drilldowns"
        )
        self._span(
            app_module,
            "compile_aggregate",
            "server.slicer.compile_aggregate",
            after=set_count("cells", lambda plan: len(plan.cells)),
        )
        json_module = app_module.json
        serialize = self._wrapped(json_module.dumps, "server.app.serialize")
        self._patch(app_module, "json", _JsonProxy(json_module, serialize))

        def plan_counts(span, plan):
            span.counts["tile_refs"] = plan.total_tile_refs
            span.counts["unique_tiles"] = plan.num_unique_tiles

        self._span(
            engine_module,
            "plan_batch",
            "service.planner.plan_batch",
            after=plan_counts,
        )
        self._span(
            QueryEngine,
            "execute_batch",
            "service.engine.execute_batch",
            register=lambda args: id(args[0].store),
        )
        self._span(
            engine_module,
            "execute_query",
            "service.queries.execute_query",
            parent_of=lambda args: tracer.active.get(id(args[0])),
        )
        read_region = TiledStandardStore.read_region

        def counted_read_region(store, per_axis, *args, **kwargs):
            cells = 1
            for axis in per_axis:
                cells *= len(axis)
            tracer.count("coeff_reads", cells)
            return read_region(store, per_axis, *args, **kwargs)

        self._patch(TiledStandardStore, "read_region", counted_read_region)
        self._span(
            ShardedBufferPool, "fetch_and_pin", "service.pool.fetch_and_pin"
        )
        self._span(ShardedBufferPool, "flush", "service.pool.flush")
        self._span(
            ServingHub, "update", "server.hub.update", io_of=first_stats
        )
        self._span(WaveletCube, "update", "olap.cube.update")
        self._span(
            batch,
            "batch_update_standard",
            "update.batch.batch_update_standard",
            io_of=first_stats,
        )
        self._span(
            JournaledDevice,
            "write_batch",
            "storage.journal.write_batch",
            io_of=first_stats,
        )
        self._span(MmapBlockDevice, "sync", "storage.mmap_device.sync")
        self._span(persist, "save_state", "server.persist.save_state")
        self._span(
            chunked,
            "transform_standard_chunked",
            "transform.chunked.transform_standard_chunked",
            io_of=first_stats,
        )
        self._span(
            chunked,
            "transform_nonstandard_chunked",
            "transform.chunked.transform_nonstandard_chunked",
            io_of=first_stats,
        )
        self._span(
            StandardAppender,
            "append",
            "append.appender.append",
            io_of=lambda args: args[0].stats,
        )
        self._span(
            expansion,
            "expand_standard_axis",
            "append.expansion.expand_standard_axis",
        )
        for journal in self._journals:
            previous = journal.on_commit

            def observer(seq, record_bytes, previous=previous):
                tracer.count("log_bytes", len(record_bytes))
                if previous is not None:
                    previous(seq, record_bytes)

            self._observers.append((journal, previous))
            journal.on_commit = observer

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for journal, previous in self._observers:
            journal.on_commit = previous
        self._observers.clear()


def per_layer_metrics(
    tracer: SpanTracer,
    plain,
    traced,
    setup: Dict[str, float],
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of a traced run.

    ``plain`` and ``traced`` are the two :class:`~shiftbench.measure.Arm`
    objects of the phase loop; ``traced.probe`` carries the counter
    deltas sampled around the traced phases (pool, admission, plan
    cache).  ``setup`` carries what only set-up measures: plan builds
    and their seconds, and the sidecar size.
    """
    layer = tracer.layer
    probe = traced.probe

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    app = layer("server.app")
    compile_ = layer("server.slicer.compile_aggregate")
    plan = layer("service.planner.plan_batch")
    batch = layer("service.engine.execute_batch")
    query = layer("service.queries.execute_query")
    hub = layer("server.hub.update")
    shift_split = layer("update.batch.batch_update_standard")
    write_batch = layer("storage.journal.write_batch")
    standard = layer("transform.chunked.transform_standard_chunked")
    nonstandard = layer("transform.chunked.transform_nonstandard_chunked")
    append = layer("append.appender.append")
    expand = layer("append.expansion.expand_standard_axis")
    op = layer(OP)
    updates = hub.calls
    lookups = probe.get("pool_hits", 0.0) + probe.get("pool_misses", 0.0)
    plan_lookups = probe.get("plan_hits", 0.0) + probe.get(
        "plan_misses", 0.0
    )
    compile_s = (
        layer("server.slicer.parse_cuts").total_s
        + layer("server.slicer.parse_drilldowns").total_s
        + compile_.total_s
    )
    values = {
        "server.app.self_ms": per(app.self_s, app.calls) * 1e3,
        "server.app.serialize_ms": per(
            layer("server.app.serialize").total_s, app.calls
        ) * 1e3,
        "server.slicer.compile_ms": per(compile_s, compile_.calls) * 1e3,
        "server.slicer.cells_per_request": per(
            compile_.count("cells"), compile_.calls
        ),
        "service.planner.plan_ms": per(plan.total_s, plan.calls) * 1e3,
        "service.planner.tile_refs_per_batch": per(
            plan.count("tile_refs"), plan.calls
        ),
        "service.planner.unique_tiles_per_batch": per(
            plan.count("unique_tiles"), plan.calls
        ),
        "service.engine.batch_ms": per(batch.total_s, batch.calls) * 1e3,
        "service.engine.handoff_ms": per(batch.self_s, batch.calls) * 1e3,
        "service.engine.admission_wait_ms": per(
            probe.get("admission_wait_s", 0.0),
            probe.get("admission_waits", 0.0),
        ) * 1e3,
        "service.engine.throttled": probe.get("throttled", 0.0),
        "service.queries.execute_ms": per(query.total_s, query.calls) * 1e3,
        "service.queries.coeff_reads_per_query": per(
            query.count("coeff_reads"), query.calls
        ),
        "service.pool.prefetch_ms": per(
            layer("service.pool.fetch_and_pin").total_s, batch.calls
        ) * 1e3,
        "service.pool.hit_rate": per(probe.get("pool_hits", 0.0), lookups),
        "service.pool.misses_per_op": per(
            probe.get("pool_misses", 0.0), traced.ops
        ),
        "service.pool.evictions_per_op": per(
            probe.get("pool_evictions", 0.0), traced.ops
        ),
        "server.hub.update_ms": per(hub.total_s, updates) * 1e3,
        "server.hub.update_other_ms": per(hub.self_s, updates) * 1e3,
        "olap.cube.update_ms": per(
            layer("olap.cube.update").total_s, layer("olap.cube.update").calls
        ) * 1e3,
        "update.batch.shift_split_ms": per(
            shift_split.total_s, shift_split.calls
        ) * 1e3,
        "update.batch.block_reads_per_op": per(
            shift_split.count("block_reads"), shift_split.calls
        ),
        "update.batch.block_writes_per_op": per(
            shift_split.count("block_writes"), shift_split.calls
        ),
        "storage.journal.write_batch_ms": per(
            write_batch.total_s, updates
        ) * 1e3,
        "storage.journal.journal_writes_per_update": per(
            write_batch.count("journal_writes"), updates
        ),
        "storage.journal.log_bytes_per_update": per(
            write_batch.count("log_bytes"), updates
        ),
        "service.pool.flush_ms": per(
            layer("service.pool.flush").total_s, updates
        ) * 1e3,
        "storage.mmap_device.sync_ms": per(
            layer("storage.mmap_device.sync").total_s, updates
        ) * 1e3,
        "server.persist.save_state_ms": per(
            layer("server.persist.save_state").total_s, updates
        ) * 1e3,
        "server.persist.sidecar_bytes": setup.get("sidecar_bytes", 0.0),
        "core.plans.builds": setup.get("plan_builds", 0.0),
        "core.plans.build_s": setup.get("plan_build_s", 0.0),
        "core.plans.hit_rate": per(
            probe.get("plan_hits", 0.0), plan_lookups
        ),
        "transform.chunked.standard_s": per(standard.total_s, standard.calls),
        "transform.chunked.standard_block_reads": per(
            standard.count("block_reads"), standard.calls
        ),
        "transform.chunked.standard_block_writes": per(
            standard.count("block_writes"), standard.calls
        ),
        "transform.chunked.nonstandard_s": per(
            nonstandard.total_s, nonstandard.calls
        ),
        "transform.chunked.nonstandard_block_reads": per(
            nonstandard.count("block_reads"), nonstandard.calls
        ),
        "transform.chunked.nonstandard_block_writes": per(
            nonstandard.count("block_writes"), nonstandard.calls
        ),
        "append.appender.append_ms": per(append.total_s, append.calls) * 1e3,
        "append.expansion.expand_s": per(expand.total_s, expand.calls),
        "append.expansion.share": per(expand.total_s, append.total_s),
        "trace.overhead_frac": (
            1.0 - per(traced.ops_per_s, plain.ops_per_s)
            if plain.ops_per_s else 0.0
        ),
        "trace.unattributed_frac": per(op.self_s, op.total_s),
    }
    return values


def layer_table(tracer: SpanTracer) -> Dict[str, dict]:
    """Every traced layer's calls, inclusive and self time, and counts."""
    return {
        name: {
            "calls": totals.calls,
            "total_ms": totals.total_s * 1e3,
            "self_ms": totals.self_s * 1e3,
            "mean_ms": totals.total_s * 1e3 / totals.calls,
            "mean_self_ms": totals.self_s * 1e3 / totals.calls,
            "counts": dict(totals.counts),
        }
        for name, totals in sorted(tracer.layers.items())
    }


def write_chrome_trace(tracer: SpanTracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
