"""Serving workloads, driven in-process through ``ServingApp``.

``olap-drilldown``: two tenants on an in-memory hub whose pool holds
both cubes; one closed-loop client per tenant sends drilldowns, so the
slicer, planner, engine handoff, coefficient math and serialisation do
all the work and the device is never read.

``olap-cold-durable``: one tenant on a ``data_dir`` hub (mmap arena
plus state sidecar) whose pool is a small fraction of the cube; one
closed-loop client sends point and small-box aggregates (pool misses
and device reads) and durable 4x4 updates (SHIFT-SPLIT, journal,
flush, msync, sidecar rewrite).

Requests are generated from the seed as fixed epochs that each client
repeats once per phase, so a phase's I/O counts repeat exactly.
Every answer is checked after the timed phases against a numpy oracle
of the loaded data plus every acknowledged update.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from shiftbench.measure import (
    Outcome,
    counter_delta,
    latency_summary,
    peak_rss_mb,
    plan_counters,
    run_phases,
    samples_ms,
    wsgi_call,
)
from shiftbench.tracing import OP, Instrumentation, SpanTracer

Box = Tuple[int, int, int, int]  # time low, time high, region low, high

#: Coefficient slots per arena block: 8x8 tiles for the 2-d cubes.
BLOCK_SLOTS = 64

#: Quantiles of the end-to-end op_tail_ms.  Each falls inside the
#: slowest operation class (64-cell drilldowns, durable updates; 20% of
#: each mix) rather than on a class boundary, which keeps it steady
#: from run to run, and leaves well over ten samples beyond it.
DRILLDOWN_TAIL = 0.98
DURABLE_TAIL = 0.95
#: Per-class tails of the readable report (agg_p99_ms, update_p95_ms).
AGG_TAIL = 0.99
UPDATE_TAIL = 0.95
#: The answer oracle's tolerance (sums of float64 cells).
RTOL = 1e-9


@dataclass(frozen=True)
class DrilldownConfig:
    size: int = 256
    tenants: int = 2
    pool_blocks: int = 8192
    #: At least the largest drilldown (64 cells) plus one more request.
    max_inflight: int = 128
    epoch: int = 40
    setup_repeats: int = 5


@dataclass(frozen=True)
class DurableConfig:
    size: int = 256
    pool_blocks: int = 64
    epoch: int = 50
    setup_repeats: int = 5


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    query: str = ""
    body: Optional[bytes] = None
    boxes: Tuple[Box, ...] = ()
    corner: Tuple[int, int] = (0, 0)
    deltas: Optional[np.ndarray] = None


def _dimensions(size: int):
    from repro.olap.schema import Dimension

    return [Dimension("time", size), Dimension("region", size)]


def _segments(size: int, parts: int) -> List[Tuple[int, int]]:
    step = size // parts
    return [(index * step, (index + 1) * step - 1) for index in range(parts)]


def _cut_drill(size: int, rng, level: int) -> Request:
    low, high = sorted(int(v) for v in rng.integers(0, size, 2))
    boxes = tuple(
        (t0, t1, low, high) for t0, t1 in _segments(size, 1 << level)
    )
    return Request(
        f"drill{1 << level}",
        "GET",
        f"cut=region:{low}-{high}&drilldown=time:{level}",
        boxes=boxes,
    )


def drilldown_epoch(size: int, epoch: int, rng) -> List[Request]:
    """One client's epoch: 50% 16-cell, 30% 4-cell, 20% 64-cell
    drilldowns, shuffled."""
    n16, n4 = epoch // 2, (epoch * 3) // 10
    requests = [_cut_drill(size, rng, 4) for __ in range(n16)]
    requests += [_cut_drill(size, rng, 2) for __ in range(n4)]
    grid = _segments(size, 8)
    full = Request(
        "drill64",
        "GET",
        "drilldown=time:3,region:3",
        boxes=tuple((t0, t1, r0, r1) for t0, t1 in grid for r0, r1 in grid),
    )
    requests += [full] * (epoch - n16 - n4)
    order = rng.permutation(len(requests))
    return [requests[index] for index in order]


def durable_epoch(size: int, epoch: int, rng) -> List[Request]:
    """One epoch: 40% point, 40% small-box aggregates, 20% durable
    4x4 updates at aligned corners, shuffled."""
    n_update = epoch // 5
    n_point = (epoch - n_update) // 2
    requests: List[Request] = []
    for index in range(epoch - n_update):
        if index < n_point:
            width = height = 1
        else:
            width, height = (int(v) for v in rng.choice([2, 4, 8], 2))
        t0 = int(rng.integers(0, size - width + 1))
        r0 = int(rng.integers(0, size - height + 1))
        box = (t0, t0 + width - 1, r0, r0 + height - 1)
        requests.append(
            Request(
                "point" if index < n_point else "box",
                "GET",
                f"cut=time:{box[0]}-{box[1]}|region:{box[2]}-{box[3]}",
                boxes=(box,),
            )
        )
    for __ in range(n_update):
        corner = tuple(int(v) * 4 for v in rng.integers(0, size // 4, 2))
        deltas = rng.integers(-8, 9, (4, 4)).astype(np.float64)
        body = json.dumps(
            {
                "deltas": deltas.tolist(),
                "corner": {"time": corner[0], "region": corner[1]},
            }
        ).encode()
        requests.append(
            Request("update", "POST", body=body, corner=corner, deltas=deltas)
        )
    order = rng.permutation(len(requests))
    return [requests[index] for index in order]


def check_answer(body: bytes, request: Request, oracle) -> Optional[str]:
    """``None`` when ``body`` answers ``request`` correctly against the
    oracle array, else the reason."""
    try:
        rows = json.loads(body)["cells"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable answer: {exc!r}"
    if len(rows) != len(request.boxes):
        return f"{len(rows)} rows, expected {len(request.boxes)}"
    for row, (t0, t1, r0, r1) in zip(rows, request.boxes):
        want = float(oracle[t0 : t1 + 1, r0 : r1 + 1].sum())
        got = row.get("sum")
        if (
            row.get("status") != "ok"
            or row.get("count") != (t1 - t0 + 1) * (r1 - r0 + 1)
            or got is None
            or not math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL)
        ):
            return (
                f"{request.kind} {request.query!r} box "
                f"{(t0, t1, r0, r1)}: got {got!r}, expected {want!r}"
            )
    return None


def _call(app, api_key: str, cube: str, request: Request):
    route = "update" if request.method == "POST" else "aggregate"
    try:
        return wsgi_call(
            app,
            request.method,
            f"/cube/{cube}/{route}",
            api_key,
            query=request.query,
            body=request.body,
        )
    except Exception as exc:  # the app should answer 500, never raise
        return -1, repr(exc).encode()


def _pool_probe(hub, labels: List[dict]) -> Dict[str, float]:
    """Counters sampled around traced phases."""
    pool = hub.pool.snapshot()
    values = {
        "pool_hits": pool["hits"],
        "pool_misses": pool["misses"],
        "pool_evictions": pool["evictions"],
        "admission_waits": 0.0,
        "admission_wait_s": 0.0,
        "throttled": 0.0,
    }
    for label in labels:
        histogram = hub.metrics.histogram("admission_wait_s", label)
        values["admission_waits"] += histogram.count
        values["admission_wait_s"] += histogram.total
        values["throttled"] += hub.metrics.counter(
            "queries_throttled", label
        ).value
    values.update(plan_counters())
    return values


# ----------------------------------------------------------------------
# olap-drilldown
# ----------------------------------------------------------------------


class _Client:
    """One closed-loop client: runs its epoch once per phase."""

    def __init__(self, app, api_key: str, requests: List[Request]) -> None:
        self.app = app
        self.api_key = api_key
        self.requests = requests
        self.latencies: Dict[str, List[float]] = {}
        self.first: Dict[int, bytes] = {}
        self.repeats: Dict[int, int] = {}
        self.odd: List[Tuple[int, bytes]] = []
        self.errors: List[str] = []

    def epoch(self, tracer: Optional[SpanTracer]) -> int:
        for index, request in enumerate(self.requests):
            started = time.perf_counter()
            span = tracer.open(OP) if tracer is not None else None
            try:
                code, body = _call(self.app, self.api_key, "cube", request)
            finally:
                if span is not None:
                    tracer.close(span)
            elapsed = time.perf_counter() - started
            if tracer is None:
                self.latencies.setdefault(request.kind, []).append(elapsed)
            if code != 200:
                self.errors.append(
                    f"{request.kind}: HTTP {code} {body[:200]!r}"
                )
            elif index not in self.first:
                self.first[index] = body
            elif body == self.first[index]:
                self.repeats[index] = self.repeats.get(index, 0) + 1
            else:
                self.odd.append((index, body))
        return len(self.requests)


class _ClosedLoop:
    """Client threads released together for each phase."""

    def __init__(self, clients: List[_Client]) -> None:
        self._clients = clients
        self._start = threading.Barrier(len(clients) + 1)
        self._end = threading.Barrier(len(clients) + 1)
        self._tracer: Optional[SpanTracer] = None
        self._stop = False
        self._threads = [
            threading.Thread(target=self._loop, args=(client,), daemon=True)
            for client in clients
        ]
        for thread in self._threads:
            thread.start()

    def _loop(self, client: _Client) -> None:
        while True:
            self._start.wait()
            if self._stop:
                return
            try:
                client.epoch(self._tracer)
            except Exception as exc:
                client.errors.append(f"client crashed: {exc!r}")
            self._end.wait()

    def phase(self, tracer: Optional[SpanTracer]) -> int:
        self._tracer = tracer
        self._start.wait(timeout=120)
        self._end.wait(timeout=120)
        return sum(len(client.requests) for client in self._clients)

    def close(self) -> None:
        self._stop = True
        self._start.wait(timeout=120)
        for thread in self._threads:
            thread.join(timeout=120)


def _build_drilldown_hub(config: DrilldownConfig, datas):
    from repro.server.hub import ServingHub

    hub = ServingHub(
        block_slots=BLOCK_SLOTS,
        pool_blocks=config.pool_blocks,
        max_inflight=config.max_inflight,
    )
    for tenant, data in enumerate(datas):
        hub.add_tenant(f"tenant{tenant}", api_key=f"key-{tenant}")
        hub.add_cube(
            f"tenant{tenant}", "cube", _dimensions(config.size), data=data
        )
    for block_id in range(hub.journaled.num_blocks):
        hub.pool.fetch_and_pin(block_id)
        hub.pool.unpin(block_id)
    return hub


def run_drilldown(
    config: DrilldownConfig, seed: int, seconds: float, traced: bool
) -> dict:
    from repro.server.app import ServingApp

    rng = np.random.default_rng(seed)
    datas = [
        rng.random((config.size, config.size))
        for __ in range(config.tenants)
    ]
    epochs = [
        drilldown_epoch(config.size, config.epoch, rng)
        for __ in range(config.tenants)
    ]
    setup_times = []
    hub = None
    for __ in range(config.setup_repeats):
        if hub is not None:
            hub.close()
        plans_before = plan_counters()
        started = time.perf_counter()
        hub = _build_drilldown_hub(config, datas)
        app = ServingApp(hub)
        for tenant, epoch in enumerate(epochs):
            for kind in ("drill4", "drill16", "drill64"):
                request = next(r for r in epoch if r.kind == kind)
                _call(app, f"key-{tenant}", "cube", request)
        setup_times.append(time.perf_counter() - started)
        setup_plans = counter_delta(plans_before, plan_counters())
    footprint = hub.journaled.num_blocks

    clients = [
        _Client(app, f"key-{tenant}", epoch)
        for tenant, epoch in enumerate(epochs)
    ]
    loop = _ClosedLoop(clients)
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer)
    labels = [
        {"tenant": f"tenant{tenant}", "cube": "cube"}
        for tenant in range(config.tenants)
    ]
    reads_before = hub.stats.block_reads
    try:
        plain, instrumented = run_phases(
            seconds,
            lambda tracing: loop.phase(tracer if tracing else None),
            traced,
            install=instrumentation.install,
            uninstall=instrumentation.uninstall,
            probe=lambda: _pool_probe(hub, labels),
        )
    finally:
        loop.close()
    timed_reads = hub.stats.block_reads - reads_before

    outcome = Outcome()
    for client, data in zip(clients, datas):
        for error in client.errors:
            outcome.fail(error)
        for index, body in client.first.items():
            reason = check_answer(body, client.requests[index], data)
            for __ in range(1 + client.repeats.get(index, 0)):
                outcome.check(reason is None, reason or "")
        for index, body in client.odd:
            reason = check_answer(body, client.requests[index], data)
            outcome.check(reason is None, reason or "")
    outcome.check(
        timed_reads == 0,
        f"{timed_reads} device block reads while timed; the pool should "
        f"hold the whole footprint",
    )
    storage = footprint * BLOCK_SLOTS / (config.tenants * config.size**2)
    hub.close()

    latencies: Dict[str, List[float]] = {}
    for client in clients:
        for kind, values in client.latencies.items():
            latencies.setdefault(kind, []).extend(values)
    every = [value for values in latencies.values() for value in values]
    overall = latency_summary(every, DRILLDOWN_TAIL)
    return {
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": plain.median_rate,
            "op_p50_ms": overall["p50_ms"],
            "op_tail_ms": overall["tail_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "storage_bytes_per_cell": storage,
        },
        "outcome": outcome,
        "tracer": tracer,
        "arms": (plain, instrumented),
        "setup": setup_plans,
        "io_counts": None,
        "details": {
            "setup_s_samples": setup_times,
            "agg": latency_summary(every, AGG_TAIL),
            "all_ops": overall,
            "by_kind": {
                kind: latency_summary(values, AGG_TAIL)
                for kind, values in sorted(latencies.items())
            },
            "timed_block_reads": timed_reads,
            "failed_frac": outcome.failed / max(1, outcome.attempted),
            "samples_ms": samples_ms(latencies),
            "sizes": {
                "cube": [config.size, config.size],
                "tenants": config.tenants,
                "pool_blocks": config.pool_blocks,
                "footprint_blocks": footprint,
                "clients": config.tenants,
                "loop": "closed",
                "requests_per_epoch": config.epoch,
                "max_inflight": config.max_inflight,
            },
        },
    }


# ----------------------------------------------------------------------
# olap-cold-durable
# ----------------------------------------------------------------------


def _apply(oracle, request: Request) -> None:
    t0, r0 = request.corner
    oracle[t0 : t0 + 4, r0 : r0 + 4] += request.deltas


def run_durable(
    config: DurableConfig,
    seed: int,
    seconds: float,
    traced: bool,
    work_dir: str,
) -> dict:
    from repro.server.app import ServingApp
    from repro.server.hub import ServingHub
    from repro.server.persist import ARENA_FILENAME, state_path

    rng = np.random.default_rng(seed)
    data = rng.random((config.size, config.size))
    epoch = durable_epoch(config.size, config.epoch, rng)
    outcome = Outcome()
    setup_times = []
    hub = None
    for repeat in range(config.setup_repeats):
        if hub is not None:
            hub.close()
            shutil.rmtree(data_dir)
        data_dir = os.path.join(work_dir, f"hub-{repeat}")
        plans_before = plan_counters()
        started = time.perf_counter()
        hub = ServingHub(
            block_slots=BLOCK_SLOTS,
            pool_blocks=config.pool_blocks,
            data_dir=data_dir,
        )
        hub.add_tenant("tenant0", api_key="key-0")
        hub.add_cube("tenant0", "cube", _dimensions(config.size), data=data)
        app = ServingApp(hub)
        # Warm the read path only; updates in set-up would put fsync
        # noise into setup_s.
        for request in epoch:
            if request.kind != "update":
                _call(app, "key-0", "cube", request)
        setup_times.append(time.perf_counter() - started)
        setup_plans = counter_delta(plans_before, plan_counters())
    oracle = data.copy()
    updated = set()
    footprint = hub.journaled.num_blocks

    records: List[Tuple[int, int, bytes]] = []
    latencies: Dict[str, List[float]] = {}
    epoch_io: List[Tuple[int, int, int]] = []
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer, journals=[hub.journaled.journal])
    label = [{"tenant": "tenant0", "cube": "cube"}]

    def phase(tracing: bool) -> int:
        # Every epoch starts from an empty pool, so its I/O repeats.
        hub.pool.flush()
        hub.pool.drop_all()
        before = hub.stats.snapshot()
        for index, request in enumerate(epoch):
            started = time.perf_counter()
            span = tracer.open(OP) if tracing else None
            try:
                code, body = _call(app, "key-0", "cube", request)
            finally:
                if span is not None:
                    tracer.close(span)
            elapsed = time.perf_counter() - started
            if not tracing:
                latencies.setdefault(request.kind, []).append(elapsed)
            records.append((index, code, body))
        delta = hub.stats.delta_since(before)
        epoch_io.append(
            (delta.block_reads, delta.block_writes, delta.journal_writes)
        )
        return len(epoch)

    plain, instrumented = run_phases(
        seconds,
        phase,
        traced,
        install=instrumentation.install,
        uninstall=instrumentation.uninstall,
        probe=lambda: _pool_probe(hub, label),
    )
    sidecar = state_path(data_dir)
    sidecar_bytes = os.path.getsize(sidecar)
    stored_bytes = (
        os.path.getsize(os.path.join(data_dir, ARENA_FILENAME)) + sidecar_bytes
    )

    for index, code, body in records:
        request = epoch[index]
        if code != 200:
            outcome.fail(f"{request.kind}: HTTP {code} {body[:200]!r}")
        elif request.kind == "update":
            _apply(oracle, request)
            updated.add(request.corner)
            outcome.ok()
        else:
            reason = check_answer(body, request, oracle)
            outcome.check(reason is None, reason or "")
    outcome.check(
        len(set(epoch_io)) == 1,
        f"block I/O differs between identical epochs: {sorted(set(epoch_io))}",
    )

    # Durability: every acknowledged update must read back from a hub
    # reopened on the same directory.
    hub.close()
    reopened = ServingHub(pool_blocks=config.pool_blocks, data_dir=data_dir)
    try:
        reopened_app = ServingApp(reopened)
        checks = [
            Request("reopen", "GET", boxes=((t0, t0 + 3, r0, r0 + 3),),
                    query=f"cut=time:{t0}-{t0 + 3}|region:{r0}-{r0 + 3}")
            for t0, r0 in sorted(updated)
        ]
        checks.append(
            Request("reopen", "GET", query="",
                    boxes=((0, config.size - 1, 0, config.size - 1),))
        )
        for request in checks:
            code, body = _call(reopened_app, "key-0", "cube", request)
            reason = (
                f"after reopen: HTTP {code}" if code != 200
                else check_answer(body, request, oracle)
            )
            outcome.check(reason is None, f"durability: {reason}")
    finally:
        reopened.close()
    shutil.rmtree(data_dir)

    aggregates = latencies.get("point", []) + latencies.get("box", [])
    every = aggregates + latencies.get("update", [])
    overall = latency_summary(every, DURABLE_TAIL)
    updates = latency_summary(latencies.get("update", []), UPDATE_TAIL)
    reads, writes, journal = epoch_io[0]
    return {
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": plain.median_rate,
            "op_p50_ms": overall["p50_ms"],
            "op_tail_ms": overall["tail_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "storage_bytes_per_cell": stored_bytes / (config.size**2 * 8),
        },
        "outcome": outcome,
        "tracer": tracer,
        "arms": (plain, instrumented),
        "setup": dict(setup_plans, sidecar_bytes=sidecar_bytes),
        "io_counts": {"per_epoch": [reads, writes, journal]},
        "details": {
            "setup_s_samples": setup_times,
            "agg": latency_summary(aggregates, AGG_TAIL),
            "update": updates,
            "all_ops": overall,
            "block_reads_per_op": reads / len(epoch),
            "block_writes_per_op": writes / len(epoch),
            "journal_writes_per_op": journal / len(epoch),
            "epochs": len(epoch_io),
            "failed_frac": outcome.failed / max(1, outcome.attempted),
            "samples_ms": samples_ms(latencies),
            "durability_checks": len(updated) + 1,
            "sizes": {
                "cube": [config.size, config.size],
                "pool_blocks": hub.pool.capacity,
                "footprint_blocks": footprint,
                "footprint_over_pool": footprint / hub.pool.capacity,
                "clients": 1,
                "loop": "closed",
                "requests_per_epoch": config.epoch,
            },
        },
    }
