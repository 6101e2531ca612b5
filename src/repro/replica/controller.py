"""Health-checked failover.

A :class:`FailoverController` probes the primary's ``/healthz`` and
promotes the most caught-up follower after N consecutive probe
failures — where "failure" is a dead endpoint, a non-OK status, or
(optionally) the primary's own circuit breaker reporting open.  The
decision logic is a pure, clock-injected ``tick()`` so tests drive it
deterministically; ``start()`` merely reschedules ``tick`` on a timer
thread.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ProbeResult:
    healthy: bool
    breaker_open: bool = False
    detail: str = ""


def http_health_probe(url: str, timeout_s: float = 1.0) -> ProbeResult:
    """Probe ``url``'s ``/healthz``.  Unreachable, non-JSON or a
    status other than ``ok``/``degraded`` ⇒ unhealthy; any tenant
    breaker open is reported separately so policy can decide whether
    that counts."""
    try:
        req = urllib.request.Request(url.rstrip("/") + "/healthz")
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            payload = json.loads(resp.read())
    except Exception as exc:  # noqa: BLE001 — transport failure = "down"
        return ProbeResult(healthy=False, detail=f"probe error: {exc}")
    status = str(payload.get("status", "unknown"))
    breaker_open = any(
        cube.get("breaker") == "open"
        for tenant in payload.get("tenants", {}).values()
        for cube in tenant.get("cubes", {}).values()
    )
    return ProbeResult(
        healthy=status in ("ok", "degraded"),
        breaker_open=breaker_open,
        detail=f"status={status}",
    )


class FailoverController:
    """Promotes a caught-up candidate when the primary stays down.

    ``candidates`` expose ``promote()`` and a ``replication_state()``
    whose ``applied_seq`` orders catch-up (a replica ``ServingHub``
    satisfies this).  Probing and promotion run under one lock; the
    promotion itself is delegated to the candidate, which is
    responsible for its own 503-during-promotion window.
    """

    def __init__(
        self,
        probe: Callable[[], ProbeResult],
        candidates: Sequence[Any],
        threshold: int = 3,
        interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        fail_on_breaker_open: bool = True,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self._probe = probe
        self._candidates = list(candidates)
        self._threshold = threshold
        self._interval_s = interval_s
        self._clock = clock
        self._fail_on_breaker_open = fail_on_breaker_open
        self._lock = threading.Lock()
        self._consecutive_failures = 0  # guarded-by: _lock
        self._timer: Optional[threading.Timer] = None  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self.promoted: Optional[object] = None  # guarded-by: _lock
        self.promotion_s: Optional[float] = None  # guarded-by: _lock
        self.events: List[Dict[str, object]] = []  # guarded-by: _lock

    # ------------------------------------------------------------------

    def tick(self) -> Optional[object]:
        """One probe/decide step.  Returns the promoted candidate on
        the tick that fires promotion, else ``None``."""
        result = self._probe()
        failed = (not result.healthy) or (
            self._fail_on_breaker_open and result.breaker_open
        )
        with self._lock:
            if self.promoted is not None:
                return None
            now = self._clock()
            if not failed:
                self._consecutive_failures = 0
                return None
            self._consecutive_failures += 1
            self.events.append(
                {
                    "t": now,
                    "event": "probe_failed",
                    "failures": self._consecutive_failures,
                    "detail": result.detail,
                }
            )
            if self._consecutive_failures < self._threshold:
                return None
            candidate = self._pick_candidate()
            if candidate is None:
                self.events.append({"t": now, "event": "no_candidate"})
                return None
            self.promoted = candidate
        # Promote outside the lock: promotion replays / scans the
        # candidate arena and must not block concurrent snapshot()s.
        start = self._clock()
        candidate.promote()
        elapsed = self._clock() - start
        with self._lock:
            self.promotion_s = elapsed
            self.events.append(
                {
                    "t": self._clock(),
                    "event": "promoted",
                    "promotion_s": elapsed,
                }
            )
        return candidate

    def _pick_candidate(self) -> Optional[Any]:  # lint: holds=_lock
        best: Optional[Any] = None
        best_seq = -1
        for cand in self._candidates:
            try:
                seq = int(cand.replication_state().get("applied_seq", -1))
            except Exception:  # noqa: BLE001 — a dead candidate just loses
                continue
            if seq > best_seq:
                best, best_seq = cand, seq
        return best

    # ------------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._stopped = False
        self._schedule()

    def _schedule(self) -> None:
        with self._lock:
            if self._stopped or self.promoted is not None:
                return
            timer = threading.Timer(self._interval_s, self._timer_tick)
            timer.daemon = True
            self._timer = timer
        timer.start()

    def _timer_tick(self) -> None:
        from ..obs.tracer import get_tracer

        # Timer threads have no trace context; root explicitly.
        with get_tracer().span("failover.tick", parent=None):
            try:
                self.tick()
            finally:
                self._schedule()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            timer = self._timer
            self._timer = None
        if timer is not None:
            timer.cancel()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "consecutive_failures": self._consecutive_failures,
                "threshold": self._threshold,
                "promoted": self.promoted is not None,
                "promotion_s": self.promotion_s,
                "events": list(self.events),
            }
