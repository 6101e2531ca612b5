"""Fault-smoke check: crash matrix + faulty replay, end to end.

Two independent robustness drills, both deterministic:

1. **Crash matrix** — a small bulk load flushed through a
   :class:`JournaledDevice` is crashed once at *every* surveyed site of
   the group-commit protocol; after each crash only the raw device
   bytes and the journal image survive, and recovery must land
   bit-identical on either the pre-flush or the post-flush fault-free
   state with a clean checksum scan — never anything in between.

2. **Faulty replay** — the serve-replay workload runs with a transient
   read-fault rate injected under the self-healing engine (retry +
   breaker + degraded reads); every answer must be retried to the
   exact value, degraded within its error bound, or a definite error.
   Zero silently-wrong answers are tolerated.

Writes ``FAULT_smoke.json`` with both sections and exits non-zero on
any violation.  Run via ``make fault-smoke``; CI runs it non-gating
and uploads the artifact.
"""

import json
import sys

import numpy as np

from repro.fault.crash import CrashPlan, InjectedCrash
from repro.service.replay import replay
from repro.storage.journal import JournaledDevice, WriteAheadJournal
from repro.storage.tiled import TiledStandardStore
from repro.wavelet.standard import standard_dwt

OUT_PATH = "FAULT_smoke.json"

SHAPE = (16, 16)
BLOCK_EDGE = 4


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def _job(crash=None, holder=None):
    """Bulk-load a small standard transform; crash-protect the flush."""
    store = TiledStandardStore(SHAPE, block_edge=BLOCK_EDGE, pool_capacity=256)
    captured = {}

    def wrap(device):
        captured["journaled"] = JournaledDevice(device)
        return captured["journaled"]

    store.tile_store.wrap_device(wrap)
    device = captured["journaled"]
    if holder is not None:
        holder["device"] = device
    coefficients = standard_dwt(np.random.default_rng(7).normal(size=SHAPE))
    for position in np.ndindex(*SHAPE):
        store.write_point(position, float(coefficients[position]))
    device.crash = crash
    store.flush()
    device.crash = None
    return device


def crash_matrix() -> dict:
    survey = CrashPlan()
    _job(crash=survey)
    check(survey.count > 0, "crash survey found no sites")
    golden_post = _job().dump_blocks()
    # The pre-flush image (blocks allocated, nothing written): taken
    # from a run whose flush is killed at the very first site.
    holder = {}
    try:
        _job(crash=CrashPlan(armed=0), holder=holder)
    except InjectedCrash:
        pass
    golden_pre = holder["device"].inner.dump_blocks()

    outcomes = {"pre": 0, "post": 0}
    for site in range(survey.count):
        plan = CrashPlan(armed=site)
        holder = {}
        try:
            _job(crash=plan, holder=holder)
        except InjectedCrash:
            pass
        else:
            raise AssertionError(f"site {site} did not crash")
        raw = holder["device"].inner
        journal_bytes = holder["device"].journal.to_bytes()
        recovered = JournaledDevice(
            raw, journal=WriteAheadJournal.from_bytes(journal_bytes)
        )
        report = recovered.recover()
        name = survey.site_names[site]
        check(report.clean, f"site {name}: checksum failures after recovery")
        final = recovered.dump_blocks()
        if np.array_equal(final, golden_pre):
            outcomes["pre"] += 1
        elif np.array_equal(final, golden_post):
            outcomes["post"] += 1
        else:
            raise AssertionError(
                f"site {name}: recovered state is neither pre- nor "
                f"post-flush — atomicity violated"
            )
    check(outcomes["pre"] > 0, "no crash site lost the flush")
    check(outcomes["post"] > 0, "no crash site kept the flush")
    return {
        "sites": survey.count,
        "site_names": list(survey.site_names),
        "recovered_to_pre": outcomes["pre"],
        "recovered_to_post": outcomes["post"],
        "atomicity_violations": 0,
    }


def faulty_replay() -> dict:
    report = replay(
        shape=(32, 32),
        block_edge=8,
        pool_capacity=32,
        points=8,
        range_sums=4,
        regions=4,
        num_shards=2,
        fault_rate=0.05,
        fault_seed=1,
    )
    fault = report["fault"]
    check(fault["wrong"] == 0, f"{fault['wrong']} silently-wrong answers")
    check(
        fault["injected"].get("read_error", 0) > 0,
        "fault replay injected no faults — the drill proved nothing",
    )
    total = (
        fault["recovered_ok"]
        + fault["degraded_within_bound"]
        + fault["definite_errors"]
    )
    check(
        total == report["config"]["queries"],
        "some answers were left unclassified",
    )
    return fault


def main():
    matrix = crash_matrix()
    fault = faulty_replay()
    smoke = {"crash_matrix": matrix, "faulty_replay": fault}
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(smoke, handle, indent=2)
    print(json.dumps(smoke, indent=2))
    print(
        f"fault-smoke OK: {matrix['sites']} crash sites recovered "
        f"atomically ({matrix['recovered_to_pre']} pre / "
        f"{matrix['recovered_to_post']} post), "
        f"{fault['injected'].get('read_error', 0)} injected read faults "
        f"with zero wrong answers, written to {OUT_PATH}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
