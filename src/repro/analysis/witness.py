"""Runtime lock-order witness: check the static graph against reality.

The static lock-order graph (:mod:`repro.analysis.lock_order`) is
conservative but not omniscient — dynamic dispatch is covered by
``# may-acquire:`` declarations, and a wrong or missing declaration
would silently punch a hole in the cycle check.  The witness closes
the loop: an opt-in :class:`InstrumentedLock` wrapper records every
*actual* nested acquisition (per-thread held stacks) during concurrent
tests, and :func:`check_consistency` verifies each observed order is
explained by the static graph.

Aliasing is the subtle part.  One runtime lock object can carry
several static names — the sharded pool's I/O lock *is* the
synchronized device's lock *is* every shard's ``_io_lock`` — so an
instrumented lock declares all its names and an observed edge is
consistent when *some* alias pair is connected in the static graph.

Everything here is test-only instrumentation: production code paths
never import this module, and an engine that was never instrumented
runs byte-for-byte identical.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

__all__ = [
    "InstrumentedLock",
    "LockWitness",
    "check_consistency",
    "instrument_engine",
    "instrument_plan_caches",
    "instrument_tracer",
]


class LockWitness:
    """Collects observed (outer, inner) acquisition pairs per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()  # private leaf lock, never nested
        self._edges: Dict[Tuple[str, str], int] = {}

    def _stack(self) -> List[str]:
        stack: Optional[List[str]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def on_acquire(self, name: str) -> None:
        stack = self._stack()
        if stack:
            with self._mutex:
                for held in stack:
                    key = (held, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append(name)

    def on_release(self, name: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def edges(self) -> Dict[Tuple[str, str], int]:
        """Observed ``(outer, inner) -> count`` pairs so far."""
        with self._mutex:
            return dict(self._edges)


class InstrumentedLock:
    """A lock proxy reporting acquisition order to a witness.

    ``names`` lists every static-graph node this runtime lock object
    embodies; the first is the name reported on acquisition, the rest
    are aliases resolved during the consistency check.  Pass ``lock``
    to wrap an existing lock object (so identity-shared locks stay
    shared after instrumentation).
    """

    def __init__(
        self,
        witness: LockWitness,
        *names: str,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        if not names:
            raise ValueError("an instrumented lock needs at least one name")
        self.witness = witness
        self.names: Tuple[str, ...] = names
        self._lock = lock if lock is not None else threading.Lock()

    @property
    def name(self) -> str:
        return self.names[0]

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self.witness.on_acquire(self.name)
        return acquired

    def release(self) -> None:
        self.witness.on_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def check_consistency(
    observed: Iterable[Tuple[str, str]],
    lock_graph: Mapping[str, Any],
    aliases: Optional[Mapping[str, Iterable[str]]] = None,
) -> List[Tuple[str, str]]:
    """Observed edges the static graph cannot explain.

    ``lock_graph`` is the analyzer's JSON shape (``{"nodes": [...],
    "edges": [{"from": ..., "to": ...}, ...]}``).  An observed
    ``(outer, inner)`` pair is *consistent* when some alias of the
    outer name reaches some alias of the inner name in the static
    graph.  Returns the inconsistent pairs — an empty list means every
    order that actually happened was statically predicted.
    """
    alias_map: Dict[str, FrozenSet[str]] = {}
    if aliases:
        for name, group in aliases.items():
            alias_map[name] = frozenset(group) | {name}

    successors: Dict[str, Set[str]] = {}
    for edge in lock_graph.get("edges", []):
        successors.setdefault(edge["from"], set()).add(edge["to"])

    def reachable(source: str, target: str) -> bool:
        seen: Set[str] = set()
        frontier = [source]
        while frontier:
            node = frontier.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(successors.get(node, ()))
        return False

    bad: List[Tuple[str, str]] = []
    for outer, inner in observed:
        outers = alias_map.get(outer, frozenset((outer,)))
        inners = alias_map.get(inner, frozenset((inner,)))
        if not any(
            reachable(a, b) for a in outers for b in inners if a != b
        ):
            bad.append((outer, inner))
    return bad


# ----------------------------------------------------------------------
# instrumentation helpers (reach into the real objects; test-only)
# ----------------------------------------------------------------------

#: The static names carried by the one shared I/O lock object.
IO_LOCK_NAMES = (
    "ShardedBufferPool._io_lock",
    "_ShardPool._io_lock",
    "_SynchronizedDevice._lock",
)

#: Alias groups for :func:`check_consistency` matching the helpers below.
DEFAULT_ALIASES: Dict[str, Tuple[str, ...]] = {
    IO_LOCK_NAMES[0]: IO_LOCK_NAMES,
}


def instrument_engine(engine: Any, witness: LockWitness) -> None:
    """Swap a :class:`QueryEngine`'s locks for instrumented wrappers.

    Covers the batch and close locks, every shard lock (one collapsed
    static node, matching the analyzer) and the shared I/O lock —
    which is re-wrapped *once* and re-pointed everywhere the original
    object was shared, preserving the identity the correctness of the
    pool depends on.
    """
    engine._batch_lock = InstrumentedLock(
        witness, "QueryEngine._batch_lock", lock=engine._batch_lock
    )
    engine._close_lock = InstrumentedLock(
        witness, "QueryEngine._close_lock", lock=engine._close_lock
    )
    pool = engine.pool
    io_lock = InstrumentedLock(witness, *IO_LOCK_NAMES, lock=pool._io_lock)
    pool._io_lock = io_lock
    for shard in pool._shards:
        shard._io_lock = io_lock
        shard._device._lock = io_lock  # the _SynchronizedDevice facade
    pool._locks = [
        InstrumentedLock(witness, "ShardedBufferPool._locks", lock=lock)
        for lock in pool._locks
    ]


def instrument_tracer(tracer: Any, witness: LockWitness) -> None:
    """Instrument a tracer's span-store and orphan locks."""
    tracer.store._lock = InstrumentedLock(
        witness, "TraceStore._lock", lock=tracer.store._lock
    )
    tracer._orphan_lock = InstrumentedLock(
        witness, "Tracer._orphan_lock", lock=tracer._orphan_lock
    )


def instrument_plan_caches(witness: LockWitness) -> None:
    """Instrument the module-global plan caches' and range-sum axis
    memo's locks."""
    from repro.core import plans
    from repro.reconstruct import rangesum

    for cache in (
        plans._STANDARD_PLANS,
        plans._NONSTANDARD_PLANS,
        rangesum._MEMO,
    ):
        cache._lock = InstrumentedLock(
            witness, "_PlanLRU._lock", lock=cache._lock
        )
