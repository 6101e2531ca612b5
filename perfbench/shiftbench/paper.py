"""``paper-maintenance``: the paper's Section 5 scenarios, no serving.

One cycle runs, in order, on fresh stores with warm plans:

1. a standard-form bulk load (Result 1 geometry: 1024^2 cells, 64^2
   chunks, 16^2 tiles, a 64-block pool);
2. a stream of SHIFT-SPLIT batch updates (16^2 and 4^2 blocks at
   aligned corners) on the loaded standard store;
3. a non-standard bulk load (512^2 cells, chunk edge 64);
4. ``StandardAppender`` appends of 16x256 slabs along axis 0 from 16
   to 1024 rows, crossing six domain expansions.

Every load, batch update and slab append is one timed operation.  Data
and deltas are integer-valued, so every Haar coefficient is a dyadic
rational and SHIFT-SPLIT must match a full re-transform bit for bit;
that is checked on the last cycle's stores after the timed phases.
Every cycle does the same work, so its block I/O must repeat exactly.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from shiftbench.measure import (
    Outcome,
    counter_delta,
    latency_summary,
    peak_rss_mb,
    plan_counters,
    run_phases,
    samples_ms,
)
from shiftbench.tracing import OP, Instrumentation, SpanTracer

#: The tail quantile.  A cycle's slowest tenth is the loads, the
#: expansions and the largest appends; a higher quantile would fall on
#: the boundary between two loads of different geometry.
OP_TAIL = 0.90


@dataclass(frozen=True)
class PaperConfig:
    size: int = 1024
    chunk: int = 64
    tile: int = 16
    pool: int = 64
    ns_size: int = 512
    ns_chunk: int = 64
    ns_tile: int = 16
    updates: int = 128
    slab_rows: int = 16
    slab_cols: int = 256
    final_rows: int = 1024
    setup_repeats: int = 3


@dataclass
class Sources:
    data: np.ndarray
    ns_data: np.ndarray
    updates: List[Tuple[np.ndarray, Tuple[int, int]]]
    slabs: List[np.ndarray]


def make_sources(config: PaperConfig, seed: int) -> Sources:
    rng = np.random.default_rng(seed)

    def cells(shape):
        return rng.integers(0, 1000, shape).astype(np.float64)

    updates = []
    for index in range(config.updates):
        edge = 16 if index % 2 == 0 else 4
        corner = tuple(
            int(v) * edge for v in rng.integers(0, config.size // edge, 2)
        )
        deltas = rng.integers(-50, 51, (edge, edge)).astype(np.float64)
        updates.append((deltas, corner))
    return Sources(
        data=cells((config.size, config.size)),
        ns_data=cells((config.ns_size, config.ns_size)),
        updates=updates,
        slabs=[
            cells((config.slab_rows, config.slab_cols))
            for __ in range(config.final_rows // config.slab_rows)
        ],
    )


class Cycle:
    """One run of the four steps; keeps its stores for the checks."""

    def __init__(self, config: PaperConfig, sources: Sources) -> None:
        self.config = config
        self.sources = sources
        self.latencies: Dict[str, List[float]] = {}
        self.io: Dict[str, Tuple[int, int]] = {}

    def _timed(self, kind: str, tracer, call) -> None:
        started = time.perf_counter()
        span = tracer.open(OP) if tracer is not None else None
        try:
            result = call()
        finally:
            if span is not None:
                tracer.close(span)
        elapsed = time.perf_counter() - started
        if tracer is None:
            if kind == "append" and result.expanded:
                kind = "append_expanding"
            self.latencies.setdefault(kind, []).append(elapsed)

    def _io(self, step: str, stats, before) -> None:
        delta = stats.delta_since(before)
        self.io[step] = (delta.block_reads, delta.block_writes)

    def run(self, tracer=None) -> int:
        import repro.transform.chunked as chunked
        import repro.update.batch as batch
        from repro.append.appender import StandardAppender
        from repro.storage.tiled import (
            TiledNonStandardStore,
            TiledStandardStore,
        )

        config, sources = self.config, self.sources
        standard = TiledStandardStore(
            (config.size, config.size),
            block_edge=config.tile,
            pool_capacity=config.pool,
        )
        before = standard.stats.snapshot()
        self._timed(
            "load",
            tracer,
            lambda: chunked.transform_standard_chunked(
                standard, sources.data, (config.chunk, config.chunk)
            ),
        )
        self._io("load", standard.stats, before)
        before = standard.stats.snapshot()
        for deltas, corner in sources.updates:
            self._timed(
                f"update{deltas.shape[0]}",
                tracer,
                lambda: batch.batch_update_standard(standard, deltas, corner),
            )
        standard.flush()
        self._io("updates", standard.stats, before)

        nonstandard = TiledNonStandardStore(
            config.ns_size,
            2,
            block_edge=config.ns_tile,
            pool_capacity=config.pool,
        )
        before = nonstandard.stats.snapshot()
        self._timed(
            "load_ns",
            tracer,
            lambda: chunked.transform_nonstandard_chunked(
                nonstandard, sources.ns_data, config.ns_chunk
            ),
        )
        nonstandard.flush()
        self._io("load_ns", nonstandard.stats, before)

        appender = StandardAppender(
            (config.slab_rows, config.slab_cols),
            0,
            lambda shape, stats: TiledStandardStore(
                shape,
                block_edge=config.tile,
                pool_capacity=config.pool,
                stats=stats,
            ),
        )
        for slab in sources.slabs:
            self._timed("append", tracer, lambda: appender.append(slab))
        self.io["appends"] = (
            appender.stats.block_reads,
            appender.stats.block_writes,
        )
        self.standard, self.nonstandard, self.appender = (
            standard,
            nonstandard,
            appender,
        )
        self.ops = 2 + len(sources.updates) + len(sources.slabs)
        return self.ops

    def stored_blocks(self) -> Tuple[float, float]:
        """(coefficient slots allocated, cells) over the final stores."""
        slots = 0
        for store in (self.standard, self.nonstandard, self.appender.store):
            device = store.tile_store.device
            slots += device.num_blocks * device.block_slots
        config = self.config
        cells = (
            config.size**2
            + config.ns_size**2
            + config.final_rows * config.slab_cols
        )
        return slots, cells


def bit_identity(cycle: Cycle, outcome: Outcome) -> None:
    """SHIFT-SPLIT results against full re-transforms (untimed)."""
    from repro.wavelet.nonstandard import nonstandard_dwt
    from repro.wavelet.standard import standard_dwt

    sources = cycle.sources
    updated = sources.data.copy()
    for deltas, (t0, r0) in sources.updates:
        edge = deltas.shape[0]
        updated[t0 : t0 + edge, r0 : r0 + edge] += deltas
    outcome.check(
        np.array_equal(cycle.standard.to_array(), standard_dwt(updated)),
        "standard load + batch updates differ from the transform of "
        "data plus deltas",
    )
    outcome.check(
        np.array_equal(
            cycle.nonstandard.to_array(), nonstandard_dwt(sources.ns_data)
        ),
        "non-standard load differs from the full non-standard transform",
    )
    outcome.check(
        np.array_equal(
            cycle.appender.to_array(),
            standard_dwt(np.concatenate(sources.slabs)),
        ),
        "appended transform differs from the transform of the "
        "concatenated slabs",
    )


def run_paper(
    config: PaperConfig, seed: int, seconds: float, traced: bool
) -> dict:
    from repro.core.plans import clear_plan_caches

    setup_times = []
    setup_io = []
    for __ in range(config.setup_repeats):
        clear_plan_caches()
        plans_before = plan_counters()
        started = time.perf_counter()
        sources = make_sources(config, seed)
        cold = Cycle(config, sources)
        cold.run()
        setup_times.append(time.perf_counter() - started)
        setup_plans = counter_delta(plans_before, plan_counters())
        setup_io.append(cold.io)

    cycles: List[Cycle] = []
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer)

    def phase(tracing: bool) -> int:
        if cycles:  # only the last cycle's stores are checked
            cycles[-1].standard = cycles[-1].nonstandard = None
            cycles[-1].appender = None
        cycle = Cycle(config, sources)
        cycles.append(cycle)
        return cycle.run(tracer if tracing else None)

    plain, instrumented = run_phases(
        seconds,
        phase,
        traced,
        install=instrumentation.install,
        uninstall=instrumentation.uninstall,
        probe=plan_counters,
    )

    outcome = Outcome()
    for cycle in cycles:
        outcome.ok(cycle.ops)
    signatures = {
        tuple(sorted(io.items()))
        for io in setup_io + [cycle.io for cycle in cycles]
    }
    outcome.check(
        len(signatures) == 1,
        f"block I/O differs between identical cycles: {sorted(signatures)}",
    )
    last = cycles[-1]
    bit_identity(last, outcome)
    slots, cells = last.stored_blocks()

    latencies: Dict[str, List[float]] = {}
    for cycle in cycles:
        for kind, values in cycle.latencies.items():
            latencies.setdefault(kind, []).extend(values)
    every = [value for values in latencies.values() for value in values]
    overall = latency_summary(every, OP_TAIL)
    updates = latencies.get("update16", []) + latencies.get("update4", [])
    appends = latencies.get("append", []) + latencies.get(
        "append_expanding", []
    )
    untraced = [cycle for cycle in cycles if cycle.latencies]
    append_s = statistics.median(
        sum(cycle.latencies.get("append", []))
        + sum(cycle.latencies.get("append_expanding", []))
        for cycle in untraced
    )
    io = cycles[0].io
    return {
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": plain.median_rate,
            "op_p50_ms": overall["p50_ms"],
            "op_tail_ms": overall["tail_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "storage_bytes_per_cell": slots / cells,
        },
        "outcome": outcome,
        "tracer": tracer,
        "arms": (plain, instrumented),
        "setup": setup_plans,
        "io_counts": {step: list(value) for step, value in sorted(io.items())},
        "details": {
            "setup_s_samples": setup_times,
            "all_ops": overall,
            "by_kind": {
                kind: latency_summary(values, OP_TAIL)
                for kind, values in sorted(latencies.items())
            },
            "load_cells_per_s": config.size**2
            / statistics.median(latencies["load"]),
            "load_ns_cells_per_s": config.ns_size**2
            / statistics.median(latencies["load_ns"]),
            "batch_update_per_s": 1.0 / statistics.median(updates),
            "append_slabs_per_s": len(appends) / len(untraced) / append_s,
            "scenario_block_ios": sum(sum(pair) for pair in io.values()),
            "block_io_by_step": {step: list(v) for step, v in io.items()},
            "cycles": len(cycles),
            "failed_frac": outcome.failed / max(1, outcome.attempted),
            "samples_ms": samples_ms(latencies),
            "sizes": {
                "standard": [config.size, config.size],
                "chunk": config.chunk,
                "tile": config.tile,
                "pool_blocks": config.pool,
                "nonstandard": [config.ns_size, config.ns_size],
                "ns_chunk": config.ns_chunk,
                "updates_per_cycle": config.updates,
                "slab": [config.slab_rows, config.slab_cols],
                "final_rows": config.final_rows,
                "clients": 1,
                "loop": "closed",
            },
        },
    }
