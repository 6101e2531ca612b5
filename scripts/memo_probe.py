"""Measure what the range-sum memo does on a benchmark workload.

Usage, from the root of a checkout::

    python3 scripts/memo_probe.py olap-drilldown --seed 31 --seconds 30 \\
        --mode warm

Runs one ``perfbench`` workload in-process (untraced) and prints one
JSON line: the run's ``ops_per_s`` / ``op_p50_ms`` / ``op_tail_ms``,
its failure count and the memo's counters
(:func:`repro.reconstruct.rangesum.range_sum_memo_info`).  Modes:

* ``warm`` — the memo as shipped;
* ``cleared`` — the memo is emptied before every request, so only the
  reuse inside one request remains;
* ``off`` — every lookup rebuilds its entry;
* ``record`` — an unbounded memo that logs every key; the report adds
  the distinct keys, the most keys one request touched, and the hit
  rate an LRU of each capacity would reach on the recorded key stream.

The benchmark's files are imported, never changed: the probe wraps
``shiftbench.serving._call`` (one request) and the memo's lookup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from collections import OrderedDict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAPACITIES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def lru_hit_rate(keys, capacity: int) -> float:
    """Hit rate of an LRU of ``capacity`` entries on a key stream."""
    entries: "OrderedDict[tuple, None]" = OrderedDict()
    hits = 0
    for key in keys:
        if key in entries:
            hits += 1
            entries.move_to_end(key)
        else:
            entries[key] = None
            if len(entries) > capacity:
                entries.popitem(last=False)
    return hits / max(1, len(keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "workload", choices=("olap-drilldown", "olap-cold-durable",
                             "paper-maintenance")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--mode", choices=("warm", "cleared", "off", "record"),
        default="warm",
    )
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    import run
    from shiftbench import serving

    from repro.reconstruct import rangesum

    memo = rangesum._MEMO
    keys: list = []
    per_request: list = []
    local = threading.local()
    lookup = memo.get_or_build
    if args.mode == "off":
        memo.get_or_build = lambda key, build: build()
    elif args.mode == "record":
        memo.resize(sys.maxsize)

        def logged(key, build):
            keys.append(key)
            seen = getattr(local, "seen", None)
            if seen is not None:
                seen.add(key)
            return lookup(key, build)

        memo.get_or_build = logged
    call = serving._call

    def probed_call(*call_args, **kwargs):
        if args.mode == "cleared":
            memo.clear()
        local.seen = set()
        try:
            return call(*call_args, **kwargs)
        finally:
            per_request.append(len(local.seen))
            local.seen = None

    serving._call = probed_call
    result = run.run_workload(args.workload, args.seed, args.seconds, False)
    e2e = result["e2e"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": args.mode,
        "attempted": result["outcome"].attempted,
        "failed": result["outcome"].failed,
        "ops_per_s": e2e["ops_per_s"],
        "op_p50_ms": e2e["op_p50_ms"],
        "op_tail_ms": e2e["op_tail_ms"],
        "memo": rangesum.range_sum_memo_info(),
    }
    if args.mode == "record":
        report["lookups"] = len(keys)
        report["distinct_keys"] = len(set(keys))
        report["max_keys_per_request"] = max(per_request, default=0)
        report["lru_hit_rate"] = {
            str(capacity): round(lru_hit_rate(keys, capacity), 4)
            for capacity in CAPACITIES + (len(set(keys)) or 1,)
        }
    print(json.dumps(report, default=float))
    return 0 if result["outcome"].failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
