"""Racesan smoke: run the concurrency hammers under the lockset
sanitizer and report what it observed.

Forces ``REPRO_RACESAN=1`` and drives three instrumented workloads:

* the 8-thread metrics hammer (counter / gauge / histogram /
  registry), the same shapes ``tests/test_service_metrics.py`` runs;
* the replication apply path: a feeder drains shipped journal frames
  into a ``FollowerEngine`` while reader threads hammer ``snapshot()``
  and ack threads post acknowledgements to the ``JournalShipper``;
* the shared range-sum axis memo: six threads compile overlapping
  range-sum axes and weight vectors through it at once.

Writes ``RACESAN_smoke.json`` with the instrumented-object count, the
fields the Eraser pass tracked, and every race / guard-mismatch
finding (rendered through the same ``Finding`` type the static rules
use).  Exits non-zero on any finding — the tree's locking is supposed
to be clean.  Run via ``make racesan-smoke``; CI runs it non-gating
and uploads the artifact.
"""

import json
import os
import sys
import threading

os.environ["REPRO_RACESAN"] = "1"

from repro.analysis.racesan import RaceSanitizer, watching  # noqa: E402
from repro.service.metrics import MetricsRegistry  # noqa: E402

OUT_PATH = "RACESAN_smoke.json"
SLOTS = 16


def _run_threads(workers):
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def metrics_hammer(results):
    """The 8-thread metrics stress under instrumentation."""
    registry = MetricsRegistry()
    counter = registry.counter("ops")
    gauge = registry.gauge("depth")
    histogram = registry.histogram("lat")

    def hammer():
        for __ in range(1000):
            counter.inc()
            gauge.add(1)
            histogram.record(1.0)

    with watching(counter, gauge, histogram) as san:
        assert san is not None, "REPRO_RACESAN=1 must enable the sanitizer"
        _run_threads([threading.Thread(target=hammer) for __ in range(8)])
        results["metrics"] = {
            "instrumented": len(san._instrumented),
            "fields_tracked": len(san._states),
        }
    assert counter.value == 8000
    assert gauge.value == 8000.0
    assert histogram.count == 8000


def replica_apply_hammer(results):
    """Feeder + snapshot readers + ackers over shipper and follower."""
    import numpy as np

    from repro.replica.follower import FollowerEngine
    from repro.replica.shipper import JournalShipper
    from repro.storage.block_device import BlockDevice
    from repro.storage.journal import JournaledDevice

    device = JournaledDevice(BlockDevice(SLOTS))
    shipper = JournalShipper(device)
    rng = np.random.default_rng(7)
    for seed in range(64):
        block_id = seed % 4
        while device.num_blocks <= block_id:
            device.allocate()
        device.write_batch([(block_id, rng.standard_normal(SLOTS))])
    frames = shipper.frames_since(0)
    assert frames is not None and len(frames) == 64
    follower = FollowerEngine(BlockDevice(SLOTS))

    stop = threading.Event()

    def reader():
        while not stop.is_set():
            follower.snapshot()
            shipper.snapshot()

    def acker(name):
        for seq in range(1, 65):
            shipper.ack(name, seq)

    readers = [threading.Thread(target=reader) for __ in range(4)]
    ackers = [
        threading.Thread(target=acker, args=(f"f{i}",)) for i in range(3)
    ]
    with watching(follower, shipper) as san:
        assert san is not None
        for thread in readers + ackers:
            thread.start()
        for frame in frames:
            follower.feed(frame)
        for thread in ackers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        results["replica"] = {
            "instrumented": len(san._instrumented),
            "fields_tracked": len(san._states),
        }
    assert follower.applied_seq == 64
    assert shipper.acks() == {f"f{i}": 64 for i in range(3)}


def axis_memo_hammer(results):
    """Six threads hit the shared range-sum memo with overlapping keys."""
    import numpy as np

    from repro.reconstruct import rangesum
    from repro.tiling.standard import StandardTiling

    tiling = StandardTiling((64, 32), 8)
    boxes = [
        (low, high) for low in range(0, 32, 3) for high in range(low, 32, 5)
    ]
    memo = rangesum._MEMO
    memo.clear()
    threads = 6
    barrier = threading.Barrier(threads)
    wrong = []

    def hammer(offset):
        barrier.wait()
        for step in range(400):
            low, high = boxes[(step * (offset + 1)) % len(boxes)]
            indices, weights = rangesum.range_sum_weights(32, low, high)
            axis = rangesum.range_sum_axis(tiling, step % 2, low, high)
            if step % 2 == 1 and not (
                np.array_equal(axis.indices, indices)
                and np.array_equal(axis.weights, weights)
            ):
                wrong.append((low, high))

    with watching(memo) as san:
        assert san is not None
        _run_threads(
            [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(threads)
            ]
        )
        results["axis_memo"] = {
            "instrumented": len(san._instrumented),
            "fields_tracked": len(san._states),
        }
    info = memo.info()
    memo.clear()
    assert not wrong, f"axis entries disagree with their weights: {wrong}"
    assert info["hits"] > info["misses"] > 0
    assert info["size"] <= info["capacity"]


def main():
    results = {"enabled": True, "findings": []}
    failures = []
    for name, fn in (
        ("metrics", metrics_hammer),
        ("replica", replica_apply_hammer),
        ("axis_memo", axis_memo_hammer),
    ):
        try:
            fn(results)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
            results["findings"].append({"workload": name, "error": str(exc)})
    # a second, deliberate sanity leg: the sanitizer must still *see*
    # races (a detector that can't fire proves nothing)
    sentinel = _SentinelRace()
    barrier = threading.Barrier(4)  # keep all idents alive at once

    def race():
        barrier.wait()
        sentinel.bump_unlocked()

    try:
        with watching(sentinel, force=True, facts=_SENTINEL_FACTS):
            _run_threads(
                [threading.Thread(target=race) for __ in range(4)]
            )
        failures.append("sentinel: seeded race was NOT detected")
    except AssertionError:
        results["sentinel_race_detected"] = True

    results["ok"] = not failures
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"racesan-smoke: wrote {OUT_PATH}")
    for failure in failures:
        print(f"racesan-smoke: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


class _SentinelRace:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0  # guarded-by: _lock

    def bump_unlocked(self):
        for __ in range(500):
            self._value += 1


_SENTINEL_FACTS = {"_SentinelRace": {"_value": "_lock"}}


if __name__ == "__main__":
    sys.exit(main())
