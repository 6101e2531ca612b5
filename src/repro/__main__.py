"""Command-line entry point: run the reproduction's experiments.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig11            # run one experiment
    python -m repro run all [--fast]     # run everything
    python -m repro serve-replay         # replay a query workload
                                         # through the service layer
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import experiments

_EXPERIMENTS = {
    "table1": experiments.table1.main,
    "table2": experiments.table2.main,
    "fig11": experiments.fig11.main,
    "fig12": experiments.fig12.main,
    "fig13": experiments.fig13.main,
    "stream-buffer": experiments.stream_buffer.main,
    "stream-space": experiments.stream_space.main,
    "stream-quality": experiments.stream_quality.main,
    "reconstruct": experiments.reconstruct_exp.main,
    "query-cost": experiments.query_cost.main,
    "update": experiments.update_exp.main,
    "sparse": experiments.sparse.main,
    "compression": experiments.compression.main,
    "ablation-tiling": experiments.ablation_tiling.main,
    "ablation-zorder": experiments.ablation_zorder.main,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "SHIFT-SPLIT reproduction — regenerate the paper's tables "
            "and figures"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run = subparsers.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="experiment id (see 'list')",
    )
    run.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down sizes for 'all'",
    )
    serve = subparsers.add_parser(
        "serve-replay",
        help=(
            "replay a mixed query workload through the concurrent "
            "service layer and print a JSON metrics report"
        ),
    )
    serve.add_argument(
        "--size", type=int, default=64, help="per-axis domain size"
    )
    serve.add_argument(
        "--ndim", type=int, default=2, help="domain dimensionality"
    )
    serve.add_argument(
        "--block-edge", type=int, default=8, help="tile edge B"
    )
    serve.add_argument(
        "--pool-capacity", type=int, default=64, help="buffer-pool blocks"
    )
    serve.add_argument(
        "--points", type=int, default=32, help="point queries"
    )
    serve.add_argument(
        "--range-sums", type=int, default=16, help="range-sum queries"
    )
    serve.add_argument(
        "--regions", type=int, default=16, help="region queries"
    )
    serve.add_argument(
        "--shards", type=int, default=4, help="buffer-pool shards"
    )
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--dataset",
        choices=["zipf", "random"],
        default="zipf",
        help="synthetic dataset family",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "trace the replay and write Chrome trace-event JSON to "
            "PATH (load it in ui.perfetto.dev); the report gains "
            "per-query I/O receipts and a lossless-attribution check"
        ),
    )
    serve.add_argument(
        "--prom",
        metavar="PATH",
        default=None,
        help=(
            "also write the engine metrics in Prometheus text "
            "exposition format to PATH (implies tracing)"
        ),
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help=(
            "inject transient read faults at this probability during "
            "the batched phase and serve through the self-healing "
            "engine (retry + breaker + degraded reads); the report "
            "gains a 'fault' section classifying every answer"
        ),
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the injected fault stream",
    )
    return parser


def _serve_replay(args: argparse.Namespace) -> int:
    from repro.service import replay

    report = replay(
        shape=(args.size,) * args.ndim,
        block_edge=args.block_edge,
        pool_capacity=args.pool_capacity,
        points=args.points,
        range_sums=args.range_sums,
        regions=args.regions,
        num_shards=args.shards,
        dataset=args.dataset,
        seed=args.seed,
        trace=bool(args.trace or args.prom),
        trace_path=args.trace,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
    )
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(report["prometheus"])
    print(json.dumps(report, indent=2))
    ok = report["results_match"]
    if "trace" in report:
        ok = ok and report["trace"]["lossless"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    if args.command == "serve-replay":
        return _serve_replay(args)
    if args.experiment == "all":
        experiments.run_all(fast=args.fast)
        return 0
    _EXPERIMENTS[args.experiment]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
