"""Measurement plumbing shared by every workload.

Latency summaries, the phase loop that alternates untraced and traced
arms, failure accounting, the in-process WSGI client and the I/O-count
ledger that turns run-to-run count drift into an error.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], target: float) -> Tuple[float, float]:
    """The ``target`` quantile, lowered until at least
    :data:`TAIL_BEYOND` samples lie beyond it.

    Returns ``(value, quantile_used)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(n - 1, int(round(target * (n - 1))))
    rank = max(0, min(rank, n - 1 - TAIL_BEYOND))
    return ordered[rank], rank / (n - 1) if n > 1 else 1.0


def latency_summary(
    seconds: Sequence[float], tail_target: float
) -> Dict[str, float]:
    """Median and tail of a latency sample, in milliseconds, with its
    sample count and the tail quantile actually used."""
    if not seconds:
        return {"count": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_q": 0.0}
    value, used = tail(seconds, tail_target)
    return {
        "count": len(seconds),
        "p50_ms": statistics.median(seconds) * 1e3,
        "tail_ms": value * 1e3,
        "tail_q": used,
    }


def samples_ms(latencies: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Raw latency samples by operation kind, in milliseconds."""
    return {
        kind: [round(value * 1e3, 4) for value in values]
        for kind, values in sorted(latencies.items())
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plan_counters() -> Dict[str, float]:
    """Hits, misses, builds and build seconds of the plan caches."""
    from repro.core.plans import plan_cache_stats

    stats = plan_cache_stats()
    caches = (stats["standard_plans"], stats["nonstandard_plans"])
    return {
        "plan_hits": sum(cache["hits"] for cache in caches),
        "plan_misses": sum(cache["misses"] for cache in caches),
        "plan_builds": sum(cache["builds"] for cache in caches),
        "plan_build_s": sum(cache["build_seconds"] for cache in caches),
    }


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


@dataclass
class Outcome:
    """Attempted / failed operation tally with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(reason)


@dataclass
class Arm:
    """Operations and wall time accumulated by one arm of the phase
    loop, plus deltas of the probe counters over its phases."""

    ops: int = 0
    wall_s: float = 0.0
    phases: int = 0
    probe: Dict[str, float] = field(default_factory=dict)
    phase_rates: List[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def median_rate(self) -> float:
        """Median of the per-phase throughputs: a burst of interference
        from outside the program moves it less than the pooled rate."""
        return statistics.median(self.phase_rates)


def run_phases(
    seconds: float,
    phase: Callable[[bool], int],
    traced: bool,
    install: Callable[[], None] = lambda: None,
    uninstall: Callable[[], None] = lambda: None,
    probe: Callable[[], Dict[str, float]] = dict,
) -> Tuple[Arm, Arm]:
    """Run ``phase(tracing)`` until ``seconds`` of phase wall elapse.

    Untraced runs call every phase with tracing off.  Traced runs
    alternate untraced and traced phases in pairs (at least one pair),
    installing the layer wrappers around each traced phase only, so the
    two arms see the same drift and their throughput ratio is the
    tracing overhead.  ``probe`` is sampled around every traced phase
    and its deltas are summed into the traced arm.
    """
    plain, instrumented = Arm(), Arm()
    started = time.perf_counter()
    index = 0
    while True:
        tracing = traced and index % 2 == 1
        arm = instrumented if tracing else plain
        before = probe() if tracing else None
        if tracing:
            install()
        try:
            phase_started = time.perf_counter()
            ops = phase(tracing)
            wall = time.perf_counter() - phase_started
            arm.ops += ops
            arm.wall_s += wall
            arm.phase_rates.append(ops / wall)
        finally:
            if tracing:
                uninstall()
        if before is not None:
            for key, value in counter_delta(before, probe()).items():
                arm.probe[key] = arm.probe.get(key, 0.0) + value
        arm.phases += 1
        index += 1
        done = time.perf_counter() - started >= seconds
        if done and (not traced or index % 2 == 0):
            return plain, instrumented


# ----------------------------------------------------------------------
# in-process WSGI client
# ----------------------------------------------------------------------


def wsgi_call(
    app,
    method: str,
    path: str,
    api_key: str,
    query: str = "",
    body: Optional[bytes] = None,
) -> Tuple[int, bytes]:
    """Call a WSGI app the way a server would; returns (status, body)."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "HTTP_X_API_KEY": api_key,
    }
    if body is not None:
        environ["CONTENT_LENGTH"] = str(len(body))
        environ["wsgi.input"] = io.BytesIO(body)
    status: List[str] = []

    def start_response(line, headers):
        status.append(line)

    payload = b"".join(app(environ, start_response))
    return int(status[0].split(" ", 1)[0]), payload


# ----------------------------------------------------------------------
# I/O-count ledger
# ----------------------------------------------------------------------


def source_digest(src_root: str) -> str:
    """Digest of every Python file under ``src_root``: counts recorded
    for one version of the program are compared only with that
    version."""
    digest = hashlib.sha1()
    for directory, subdirs, files in os.walk(src_root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def check_ledger(path: str, key: str, counts: dict) -> Optional[dict]:
    """Record ``counts`` under ``key`` in the JSON ledger at ``path``.

    Returns the counts an earlier run recorded under the same key when
    they differ from ``counts`` (a determinism failure), else ``None``.
    """
    ledger: dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            ledger = json.load(handle)
    earlier = ledger.get(key)
    if earlier is not None and earlier != counts:
        return earlier
    ledger[key] = counts
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)
    return None
