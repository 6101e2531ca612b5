"""Runtime lock-order witness vs the static graph.

The static lock-order graph leans on ``# may-acquire:`` declarations
where dispatch is dynamic (the ``getattr``-probed group-commit path);
a wrong declaration would silently hole the deadlock check.  These
tests drive the real concurrent engine — plain and journaled, with
tracing on — under instrumented locks and assert every *observed*
acquisition order is explained by the static graph.
"""

import threading

import numpy as np
import pytest

from repro.analysis.engine import run_analysis
from repro.analysis.witness import (
    DEFAULT_ALIASES,
    InstrumentedLock,
    LockWitness,
    check_consistency,
    instrument_engine,
    instrument_plan_caches,
    instrument_tracer,
)
from repro.obs.tracer import tracing
from repro.service.engine import QueryEngine
from repro.service.replay import build_store, build_workload
from repro.storage.journal import JournaledDevice


def _static_graph():
    return run_analysis().data["lock_graph"]


def _drive(engine, store, queries):
    for position, value in {(1, 2): 3.5, (30, 17): -2.25}.items():
        store.write_point(position, value)
    batch = engine.execute_batch(queries)
    singles = [engine.run(query) for query in queries[:6]]
    return batch, singles


class TestWitnessMechanics:
    def test_instrumented_lock_still_excludes(self):
        witness = LockWitness()
        lock = InstrumentedLock(witness, "T.lock")
        counter = {"n": 0}

        def bump():
            for __ in range(2000):
                with lock:
                    counter["n"] += 1

        threads = [threading.Thread(target=bump) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["n"] == 8000

    def test_nesting_is_recorded_per_thread(self):
        witness = LockWitness()
        outer = InstrumentedLock(witness, "A")
        inner = InstrumentedLock(witness, "B")
        with outer:
            with inner:
                pass
        with inner:
            pass  # no edge: nothing held
        assert witness.edges() == {("A", "B"): 1}

    def test_inconsistent_edge_is_reported(self):
        graph = {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B"}]}
        assert check_consistency([("A", "B")], graph) == []
        assert check_consistency([("B", "A")], graph) == [("B", "A")]

    def test_aliases_resolve_before_checking(self):
        graph = {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B"}]}
        aliases = {"A-runtime": ("A",)}
        assert (
            check_consistency([("A-runtime", "B")], graph, aliases=aliases)
            == []
        )

    def test_transitive_orders_are_consistent(self):
        graph = {
            "nodes": ["A", "B", "C"],
            "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "C"}],
        }
        # observed A->C directly: explained by reachability
        assert check_consistency([("A", "C")], graph) == []


class TestWitnessAgainstEngine:
    @pytest.fixture(scope="class")
    def static_graph(self):
        return _static_graph()

    def _run_engine(self, wrap=None):
        store, data = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=5
        )
        if wrap is not None:
            store.tile_store.wrap_device(wrap)
        queries = build_workload(
            store.shape, points=12, range_sums=6, regions=6, seed=3
        )
        witness = LockWitness()
        instrument_plan_caches(witness)
        with tracing() as tracer:
            instrument_tracer(tracer, witness)
            engine = QueryEngine(store, num_shards=4, pool_capacity=16)
            instrument_engine(engine, witness)
            batch, singles = _drive(engine, store, queries)
            engine.close()
        assert all(r.ok for r in batch.results)
        assert all(r.ok for r in singles)
        return witness

    def test_plain_engine_orders_match_static_graph(self, static_graph):
        witness = self._run_engine()
        observed = witness.edges()
        assert observed  # the run exercised nested locking
        assert (
            check_consistency(observed, static_graph, aliases=DEFAULT_ALIASES)
            == []
        )

    def test_journaled_flush_orders_match_static_graph(self, static_graph):
        """The group-commit path: shard lock -> synchronized-device
        lock -> tracer locks, reached through ``getattr`` probing the
        static analysis cannot follow.  This is exactly what the
        ``# may-acquire:`` declarations claim — verify reality agrees.
        """
        witness = self._run_engine(wrap=JournaledDevice)
        observed = witness.edges()
        io_name = "ShardedBufferPool._io_lock"
        assert ("ShardedBufferPool._locks", io_name) in observed
        # the journaled group commit opens spans under the I/O lock
        assert ("ShardedBufferPool._locks", "TraceStore._lock") in observed
        assert (
            check_consistency(observed, static_graph, aliases=DEFAULT_ALIASES)
            == []
        )

    def test_witness_would_catch_a_missing_static_edge(self, static_graph):
        """Negative control: remove the may-acquire-declared edge from
        the graph and the journaled run's observations must fail."""
        witness = self._run_engine(wrap=JournaledDevice)
        io_aliases = set(DEFAULT_ALIASES["ShardedBufferPool._io_lock"]) | {
            "ShardedBufferPool._io_lock"
        }
        pruned = {
            "nodes": static_graph["nodes"],
            "edges": [
                e
                for e in static_graph["edges"]
                if not (
                    e["from"] == "ShardedBufferPool._locks"
                    and e["to"] in io_aliases
                )
            ],
        }
        bad = check_consistency(
            witness.edges(), pruned, aliases=DEFAULT_ALIASES
        )
        assert bad  # the hole is visible to the witness
