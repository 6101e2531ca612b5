"""Lightweight, thread-safe serving metrics.

The query engine needs observability that the raw
:class:`~repro.storage.iostats.IOStats` counters cannot express —
latency distributions, admission outcomes, planner dedup ratios.  A
:class:`MetricsRegistry` holds named :class:`Counter`\\ s,
:class:`Gauge`\\ s and :class:`Histogram`\\ s behind one lock and
renders everything to a plain dict with
:meth:`MetricsRegistry.snapshot`, which is what the benchmarks and the
``serve-replay`` CLI print.  :func:`repro.obs.to_prometheus` renders
the same registry in Prometheus text exposition format.

Counters, gauges and histograms may carry **labels**
(``registry.counter("hits", labels={"shard": 0})``): each distinct
label set is its own series, keyed in snapshots as ``name{k="v",...}``
— the Prometheus convention, passed through verbatim by the exporter.
The serving layer uses this for per-tenant series
(``query_latency_s{tenant="acme"}``).

No external metrics stack: observations are kept in a bounded
reservoir, percentiles are computed on demand from a sorted copy.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _series_key(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}`` with label
    names sorted, so equal label sets always map to the same series."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        # lint: allow=lock-discipline (racy read of a CPython-atomic int; scrapes tolerate staleness)
        return self._value


class Gauge:
    """A named value that can move both ways (pool residency, queries
    in flight).  Unlike :class:`Counter` it is *set* to the current reading
    rather than accumulated; ``add`` supports delta-style updates (e.g.
    +1 on admit, -1 on completion)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        # lint: allow=lock-discipline (racy read of a CPython-atomic float; scrapes tolerate staleness)
        return self._value


class Histogram:
    """Latency-style distribution with percentile snapshots.

    Keeps at most ``max_samples`` raw observations; count/sum/min/max
    are exact.  Once the reservoir fills it is halved (every other
    sample kept) and the keep *stride* doubles, so later observations
    are admitted at the thinned rate too — the kept set stays uniformly
    spaced over the whole record sequence instead of over-representing
    recent samples.  Adequate for benchmark reporting, not billing.
    """

    __slots__ = ("name", "_samples", "_max_samples", "_stride", "count",
                 "total", "min", "max", "_lock")

    def __init__(self, name: str, max_samples: int = 8192) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self._samples: List[float] = []  # guarded-by: _lock
        self._max_samples = max_samples
        self._stride = 1  # guarded-by: _lock
        self.count = 0  # guarded-by: _lock
        self.total = 0.0  # guarded-by: _lock
        self.min = float("inf")  # guarded-by: _lock
        self.max = float("-inf")  # guarded-by: _lock
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            if (self.count - 1) % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) > self._max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) of the kept samples
        (nearest-rank; 0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            ordered = sorted(self._samples)
        return self._rank(ordered, q)

    @staticmethod
    def _rank(ordered: List[float], q: float) -> float:
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        # One lock acquisition for the whole snapshot: reading count /
        # total / min / max field-by-field without the lock can tear
        # against a concurrent record() (count from before an update,
        # total from after it).
        with self._lock:
            count = self.count
            total = self.total
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
            ordered = sorted(self._samples)
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
            "p50": self._rank(ordered, 0.50),
            "p95": self._rank(ordered, 0.95),
            "p99": self._rank(ordered, 0.99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Counter:
        key = _series_key(name, labels)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(key)
            return counter

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Gauge:
        key = _series_key(name, labels)
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge(key)
            return gauge

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(key)
            return histogram

    def snapshot(self) -> dict:
        """Everything the registry knows, as one JSON-friendly dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
        }
