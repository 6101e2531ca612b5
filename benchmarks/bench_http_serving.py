"""Benchmark for the HTTP serving layer: latency and I/O per request
class, plus the two-tenant quota-enforcement acceptance run.

Phase 1 drives a live :class:`ThreadingWSGIServer` (ephemeral port)
over the deterministic demo hub and measures, per request class —
``model``, ``point`` (fully-cut aggregate), ``rollup`` (hierarchy
cut), ``drilldown`` (member cross product) and ``update`` (SHIFT-SPLIT
delta batch) — the p50/p95 wall-clock latency and the shared arena's
block/journal I/O per request.

Phase 2 is the acceptance experiment for tenant isolation: a *noisy*
tenant floods its own admission quota from several threads while a
*quiet* tenant keeps issuing small aggregates.  The noisy quota is
held provably full throughout the flood — enough noisy requests to
fill it are parked in flight behind a gate in the noisy cube's read
path — so the quota must turn *every* flood request into a per-tenant
429 (an exact count, not a race), and the quiet tenant's p95 must stay
inside its deadline budget both alone and under contention — one
saturated tenant cannot push the other past its deadline.

Run standalone for the JSON report (written to ``BENCH_http.json``)::

    PYTHONPATH=src python benchmarks/bench_http_serving.py [--smoke]

``--smoke`` shrinks the request counts for CI; the report schema is
identical.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np

FULL = dict(
    requests_per_class=40,
    noisy_threads=4,
    noisy_requests=10,
    quiet_threads=2,
    quiet_requests=15,
    quiet_deadline_ms=1000.0,
)
SMOKE = dict(
    requests_per_class=12,
    noisy_threads=3,
    noisy_requests=6,
    quiet_threads=2,
    quiet_requests=8,
    quiet_deadline_ms=1000.0,
)


def _fetch(base, path, key, data=None, timeout=30):
    request = urllib.request.Request(base + path, data=data)
    request.add_header("X-API-Key", key)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            response.read()
            code = response.status
    except urllib.error.HTTPError as error:
        error.read()
        code = error.code
    return code, (time.perf_counter() - start) * 1e3


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _summarize(latencies, codes, io_delta):
    count = max(1, len(latencies))
    return {
        "requests": len(latencies),
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p95_ms": round(_percentile(latencies, 0.95), 3),
        "status_counts": {
            str(code): codes.count(code) for code in sorted(set(codes))
        },
        "io_per_request": {
            "block_reads": io_delta.block_reads / count,
            "block_writes": io_delta.block_writes / count,
            "journal_writes": io_delta.journal_writes / count,
        },
    }


def _bench_request_classes(cfg):
    from repro.server.demo import build_demo_hub
    from repro.server.http import spawn

    hub = build_demo_hub(seed=7)
    server, __thread = spawn(hub)
    host, port = server.server_address
    base = f"http://{host}:{port}"
    n = cfg["requests_per_class"]
    update_body = json.dumps(
        {"deltas": [[0.5] * 4] * 4, "corner": {"time": 8, "region": 8}}
    ).encode()
    classes = {
        "model": ("/cube/sales/model", None),
        "point": ("/cube/sales/aggregate?cut=time:5|region:9", None),
        "rollup": (
            "/cube/sales/aggregate?cut=time@ymd:2.1|region:0-31",
            None,
        ),
        "drilldown": (
            "/cube/sales/aggregate?cut=time@ymd:2&drilldown=time,region:2",
            None,
        ),
        "update": ("/cube/sales/update", update_body),
    }
    results = {}
    try:
        for name, (path, body) in classes.items():
            before = hub.stats.snapshot()
            latencies, codes = [], []
            for __ in range(n):
                code, ms = _fetch(base, path, "acme-key", data=body)
                codes.append(code)
                latencies.append(ms)
            delta = hub.stats.delta_since(before)
            results[name] = _summarize(latencies, codes, delta)
            assert set(codes) == {200}, f"{name}: unexpected {set(codes)}"
    finally:
        server.shutdown()
        server.server_close()
        hub.close()
    return results


def _run_clients(base, path, key, threads, requests_each):
    """Fan out HTTP clients; returns (latencies_ms, status codes)."""
    latencies, codes = [], []
    lock = threading.Lock()

    def client():
        for __ in range(requests_each):
            code, ms = _fetch(base, path, key)
            with lock:
                codes.append(code)
                latencies.append(ms)

    workers = [threading.Thread(target=client) for __ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120)
    return latencies, codes


class _ReadGate:
    """Parks every read of one cube's store until :meth:`open`.

    Installed over the store instance's ``read_region``, the read path
    of its range sums.  A request parked here has been admitted, so it
    holds its in-flight quota until the gate opens.
    """

    def __init__(self, store):
        self._read_region = store.read_region
        self._arrivals = threading.Semaphore(0)
        self._opened = threading.Event()
        store.read_region = self._gated_read_region

    def _gated_read_region(self, *args, **kwargs):
        self._arrivals.release()
        self._opened.wait(120)
        return self._read_region(*args, **kwargs)

    def await_arrivals(self, count, timeout=60):
        for __ in range(count):
            if not self._arrivals.acquire(timeout=timeout):
                raise RuntimeError("a gated request never reached the read")

    def open(self):
        self._opened.set()


def _bench_tenant_isolation(cfg):
    from repro.olap.schema import Dimension
    from repro.server.http import spawn
    from repro.server.hub import ServingHub

    hub = ServingHub(block_slots=64, pool_blocks=64)
    rng = np.random.default_rng(11)
    hub.add_tenant("quiet", api_key="quiet-key", max_inflight=32)
    # the noisy quota is sized so two concurrent 4-cell drilldowns fit
    # and the third throttles
    noisy_quota, noisy_cells = 8, 4
    held = noisy_quota // noisy_cells
    hub.add_tenant("noisy", api_key="noisy-key", max_inflight=noisy_quota)
    states = {}
    for tenant, cube in (("quiet", "steady"), ("noisy", "flood")):
        states[cube] = hub.add_cube(
            tenant,
            cube,
            [Dimension("x", 64), Dimension("y", 64)],
            data=rng.random((64, 64)),
        )
    server, __thread = spawn(hub)
    host, port = server.server_address
    base = f"http://{host}:{port}"
    quiet_path = "/cube/steady/aggregate?cut=x:0-15&drilldown=y:2"
    noisy_path = "/cube/flood/aggregate?drilldown=x:2"
    try:
        alone, alone_codes = _run_clients(
            base,
            quiet_path,
            "quiet-key",
            cfg["quiet_threads"],
            cfg["quiet_requests"],
        )
        assert set(alone_codes) == {200}

        # Fill the noisy quota: `held` drilldowns are admitted and park
        # on their first read, so every flood request below finds the
        # quota exhausted.
        gate = _ReadGate(states["flood"].cube.store)
        held_codes = []

        def held_request():
            held_codes.append(_fetch(base, noisy_path, "noisy-key")[0])

        holders = [
            threading.Thread(target=held_request) for __ in range(held)
        ]
        for holder in holders:
            holder.start()
        quiet_out = {}
        noisy_out = {}

        def noisy_side():
            noisy_out["data"] = _run_clients(
                base,
                noisy_path,
                "noisy-key",
                cfg["noisy_threads"],
                cfg["noisy_requests"],
            )

        def quiet_side():
            quiet_out["data"] = _run_clients(
                base,
                quiet_path,
                "quiet-key",
                cfg["quiet_threads"],
                cfg["quiet_requests"],
            )

        sides = [
            threading.Thread(target=noisy_side),
            threading.Thread(target=quiet_side),
        ]
        try:
            gate.await_arrivals(held)
            for side in sides:
                side.start()
            for side in sides:
                side.join(300)
        finally:
            gate.open()
            for holder in holders:
                holder.join(120)
        contended, contended_codes = quiet_out["data"]
        noisy_lat, noisy_codes = noisy_out["data"]
        flood = cfg["noisy_threads"] * cfg["noisy_requests"]

        deadline_ms = cfg["quiet_deadline_ms"]
        report = {
            "quiet_deadline_ms": deadline_ms,
            "quiet_alone": {
                "p50_ms": round(_percentile(alone, 0.50), 3),
                "p95_ms": round(_percentile(alone, 0.95), 3),
            },
            "quiet_contended": {
                "p50_ms": round(_percentile(contended, 0.50), 3),
                "p95_ms": round(_percentile(contended, 0.95), 3),
                "status_counts": {
                    str(code): contended_codes.count(code)
                    for code in sorted(set(contended_codes))
                },
            },
            "noisy": {
                "p50_ms": round(_percentile(noisy_lat, 0.50), 3),
                "requests": len(noisy_codes),
                "throttled_429": noisy_codes.count(429),
                "served_200": noisy_codes.count(200),
                "held_in_flight": held,
                "held_served_200": held_codes.count(200),
            },
        }
        report["quota_enforced"] = (
            report["noisy"]["throttled_429"] == flood
            and report["noisy"]["held_served_200"] == held
            and set(contended_codes) == {200}
            and report["quiet_contended"]["p95_ms"] <= deadline_ms
        )
        return report
    finally:
        server.shutdown()
        server.server_close()
        hub.close()


def http_serving(smoke=False):
    cfg = SMOKE if smoke else FULL
    report = {
        "config": dict(cfg, smoke=smoke),
        "classes": _bench_request_classes(cfg),
        "isolation": _bench_tenant_isolation(cfg),
    }
    print(json.dumps(report, indent=2))
    with open("BENCH_http.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(
        "http-serving: isolation "
        f"quota_enforced={report['isolation']['quota_enforced']} "
        f"(noisy 429s={report['isolation']['noisy']['throttled_429']}, "
        "quiet contended p95="
        f"{report['isolation']['quiet_contended']['p95_ms']}ms "
        f"vs deadline {report['isolation']['quiet_deadline_ms']}ms); "
        "written to BENCH_http.json",
        file=sys.stderr,
    )
    return report


def test_http_serving(benchmark):
    from conftest import run_experiment

    report = run_experiment(benchmark, http_serving, smoke=True)
    classes = report["classes"]
    assert set(classes) == {"model", "point", "rollup", "drilldown", "update"}
    # reads are served through the shared pool: the warm tail keeps the
    # per-request device I/O well under one block per request...
    assert classes["model"]["io_per_request"]["block_reads"] == 0.0
    # ...while updates must hit the journal every time
    assert classes["update"]["io_per_request"]["journal_writes"] > 0.0
    isolation = report["isolation"]
    flood = SMOKE["noisy_threads"] * SMOKE["noisy_requests"]
    assert isolation["noisy"]["throttled_429"] == flood
    assert isolation["noisy"]["served_200"] == 0
    held = isolation["noisy"]["held_in_flight"]
    assert held == 2 and isolation["noisy"]["held_served_200"] == held
    assert isolation["quota_enforced"]


if __name__ == "__main__":
    report = http_serving(smoke="--smoke" in sys.argv)
    if not report["isolation"]["quota_enforced"]:
        sys.exit(1)
