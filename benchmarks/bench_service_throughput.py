"""Benchmark for the serving layer: batched planner vs naive queries.

A 64-query mixed workload (point / range-sum / region) is executed
twice against the same tiled store — once one-query-at-a-time with a
cold cache per query, once through the :class:`QueryEngine`'s batched
planner with a sharded pool — and the block-I/O-per-query and
throughput of both paths are reported.  The planner's fetch dedup must
beat the naive path on block reads (the workload's root paths overlap
heavily on the coarse bands).

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py

With ``--trace [PATH]`` the replay runs under the tracer: the report
gains per-query I/O receipts and a lossless-attribution check (the
receipt total must equal the global IOStats delta exactly), and the
Chrome trace-event JSON is written to PATH (default
``TRACE_service.json``; load it in https://ui.perfetto.dev).

With ``--fault-rate R`` the batched phase runs with transient read
faults injected at probability R under the self-healing engine (retry
+ circuit breaker + degraded reads).  The report gains a ``fault``
section classifying every answer (retried-to-exact / degraded within
bound / definite error / wrong), is written to ``BENCH_faults.json``,
and the run fails if any answer was silently wrong.
"""

import json
import sys

from conftest import run_experiment

from repro.service import replay

WORKLOAD = dict(
    shape=(64, 64),
    block_edge=8,
    pool_capacity=64,
    points=32,
    range_sums=16,
    regions=16,  # 64 queries total
    num_shards=4,
    seed=0,
)


def service_throughput(trace_path=None, fault_rate=0.0) -> dict:
    report = replay(
        **WORKLOAD,
        trace=trace_path is not None,
        trace_path=trace_path,
        fault_rate=fault_rate,
        fault_seed=1,
    )
    print(json.dumps(report, indent=2))
    if fault_rate > 0.0:
        fault = report["fault"]
        with open("BENCH_faults.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        assert fault["wrong"] == 0, (
            f"{fault['wrong']} silently-wrong answers under "
            f"fault_rate={fault_rate}"
        )
        print(
            f"faults: {fault['injected']} injected, "
            f"{fault['recovered_ok']} retried to exact, "
            f"{fault['degraded_within_bound']} degraded within bound, "
            f"{fault['definite_errors']} definite errors, "
            f"{fault['wrong']} wrong; written to BENCH_faults.json",
            file=sys.stderr,
        )
    if trace_path is not None:
        trace = report["trace"]
        assert trace["lossless"], (
            "I/O attribution lost counts: "
            f"receipt={trace['receipt']['total']} "
            f"expected={trace['expected_io']}"
        )
        print(
            f"trace: {trace['spans']} spans "
            f"({trace['dropped_spans']} dropped), "
            f"{len(trace['queries'])} query receipts, "
            f"lossless={trace['lossless']}, written to {trace_path}",
            file=sys.stderr,
        )
    return report


def test_service_throughput(benchmark):
    report = run_experiment(benchmark, service_throughput)
    assert report["config"]["queries"] == 64
    # Both paths must compute identical answers.
    assert report["results_match"]
    # The batch overlaps on coarse-band tiles: dedup ratio > 1 and
    # measurably fewer block reads than 64 independent executions.
    assert report["batched"]["dedup_ratio"] > 1.0
    assert report["batched"]["block_reads"] < report["naive"]["block_reads"]
    # With the pool sized to hold the working set, the batch reads each
    # unique tile exactly once.
    assert report["batched"]["block_reads"] == report["batched"]["unique_tiles"]


if __name__ == "__main__":
    path = None
    if "--trace" in sys.argv:
        index = sys.argv.index("--trace")
        if index + 1 < len(sys.argv) and not sys.argv[index + 1].startswith(
            "-"
        ):
            path = sys.argv[index + 1]
        else:
            path = "TRACE_service.json"
    rate = 0.0
    if "--fault-rate" in sys.argv:
        index = sys.argv.index("--fault-rate")
        rate = float(sys.argv[index + 1]) if index + 1 < len(sys.argv) else 0.01
    service_throughput(trace_path=path, fault_rate=rate)
