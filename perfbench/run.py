"""Run the repository's benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload olap-drilldown --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload`` is one of ``olap-drilldown``, ``olap-cold-durable``,
``paper-maintenance`` or ``all`` (each workload in its own process).
With ``--trace 0`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead, from a run that alternates untraced
and traced phases.  A readable table of every metric, including the
per-workload ones that are not end-to-end metrics of every workload,
goes to standard error.  Full details, and for traced runs a Chrome
trace, are written under ``.perfbench_out/``.

The exit code is 0 only when every answer, durability and bit-identity
check passed and block-I/O counts repeated exactly; it is 2, with no
result printed, when the program's source is not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("olap-drilldown", "olap-cold-durable", "paper-maintenance")

#: End-to-end metrics, reported by every workload: (name, unit).
E2E = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("storage_bytes_per_cell", "B/cell"),
)


def _named_metrics(workload: str, result: dict) -> list:
    """The per-workload metrics that only some workloads have, by name
    and unit, for the readable report."""
    e2e, details = result["e2e"], result["details"]
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        ("failed_frac", details["failed_frac"], "ratio"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
    ]
    if workload != "paper-maintenance":
        agg = details["agg"]
        rows += [
            ("ops_per_s", e2e["ops_per_s"], "1/s"),
            ("agg_p50_ms", agg["p50_ms"], "ms"),
            ("agg_p99_ms", agg["tail_ms"], "ms"),
            ("agg_p99_quantile_used", agg["tail_q"], "ratio"),
            ("agg_samples", agg["count"], "count"),
        ]
    if workload == "olap-cold-durable":
        update = details["update"]
        rows += [
            ("update_p50_ms", update["p50_ms"], "ms"),
            ("update_p95_ms", update["tail_ms"], "ms"),
            ("update_p95_quantile_used", update["tail_q"], "ratio"),
            ("update_samples", update["count"], "count"),
            ("block_reads_per_op", details["block_reads_per_op"], "count"),
            ("block_writes_per_op", details["block_writes_per_op"],
             "count"),
        ]
    if workload != "olap-drilldown":
        rows.append(
            ("storage_bytes_per_cell", e2e["storage_bytes_per_cell"],
             "B/cell")
        )
    if workload == "paper-maintenance":
        rows += [
            ("scenario_block_ios", details["scenario_block_ios"], "count"),
            ("load_cells_per_s", details["load_cells_per_s"], "1/s"),
            ("load_ns_cells_per_s", details["load_ns_cells_per_s"], "1/s"),
            ("batch_update_per_s", details["batch_update_per_s"], "1/s"),
            ("append_slabs_per_s", details["append_slabs_per_s"], "1/s"),
        ]
    return rows


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    from shiftbench import paper, serving

    if workload == "olap-drilldown":
        return serving.run_drilldown(
            serving.DrilldownConfig(), seed, seconds, traced
        )
    if workload == "olap-cold-durable":
        work_dir = tempfile.mkdtemp(prefix="durable-", dir=OUT)
        try:
            return serving.run_durable(
                serving.DurableConfig(), seed, seconds, traced, work_dir
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return paper.run_paper(paper.PaperConfig(), seed, seconds, traced)


def _one(args) -> int:
    from shiftbench.measure import check_ledger, source_digest
    from shiftbench.tracing import (
        PER_LAYER,
        layer_table,
        per_layer_metrics,
        write_chrome_trace,
    )

    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced)
    outcome = result["outcome"]
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    if result["io_counts"] is not None:
        key = (
            f"{args.workload}|seed={args.seed}|"
            f"{source_digest(SRC)}|{source_digest(HERE)}"
        )
        earlier = check_ledger(
            os.path.join(OUT, "io_ledger.json"), key, result["io_counts"]
        )
        outcome.check(
            earlier is None,
            f"block I/O counts {result['io_counts']} differ from an "
            f"earlier run with the same seed and source: {earlier}",
        )
    plain, instrumented = result["arms"]
    if traced:
        values = per_layer_metrics(
            result["tracer"], plain, instrumented, result["setup"]
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, __ in PER_LAYER
        }
        write_chrome_trace(result["tracer"], stem + ".trace.json")
    else:
        metrics = {
            name: {"value": result["e2e"][name], "unit": unit}
            for name, unit in E2E
        }
    named = _named_metrics(args.workload, result)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "metrics": metrics,
        "workload_metrics": {name: value for name, value, __ in named},
        "arms": {
            "untraced": vars(plain),
            "traced": vars(instrumented),
        },
        "failures": outcome.reasons,
        "io_counts": result["io_counts"],
        "details": result["details"],
    }
    if traced:
        report["layers"] = layer_table(result["tracer"])
        report["dropped_spans"] = result["tracer"].dropped
        report["unwrapped_layers"] = sorted(result["tracer"].unwrapped)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=float)

    print(f"{args.workload} seed={args.seed} trace={args.trace}",
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    if not traced:
        print("  workload metrics:", file=sys.stderr)
        for name, value, unit in named:
            print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}", file=sys.stderr)
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            check=False,
        )
        lines = completed.stdout.decode().strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {completed.returncode})",
                  file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program's source is not at {SRC}; run from "
            f"the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return _all(args)
    return _one(args)


if __name__ == "__main__":
    sys.exit(main())
