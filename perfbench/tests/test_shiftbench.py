"""Tests of the benchmark itself, on tiny geometries.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from shiftbench import measure, paper, serving
from shiftbench.tracing import (
    PER_LAYER,
    SpanTracer,
    covered_seconds,
    per_layer_metrics,
)

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

DRILL = serving.DrilldownConfig(
    size=32, pool_blocks=512, epoch=10, setup_repeats=1
)
DURABLE = serving.DurableConfig(
    size=32, pool_blocks=8, epoch=10, setup_repeats=1
)
PAPER = paper.PaperConfig(
    size=64, chunk=16, tile=8, pool=16, ns_size=32, ns_chunk=16,
    ns_tile=4, updates=8, slab_rows=8, slab_cols=16, final_rows=64,
    setup_repeats=1,
)
SECONDS = 0.3


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(BENCH_DIR, "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, tmp_path, traced=False, seed=3):
    if workload == "olap-drilldown":
        return serving.run_drilldown(DRILL, seed, SECONDS, traced)
    if workload == "olap-cold-durable":
        work_dir = tmp_path / f"durable-{seed}-{int(traced)}"
        work_dir.mkdir(exist_ok=True)
        return serving.run_durable(
            DURABLE, seed, SECONDS, traced, str(work_dir)
        )
    return paper.run_paper(PAPER, seed, SECONDS, traced)


WORKLOADS = ("olap-drilldown", "olap-cold-durable", "paper-maintenance")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_reports_every_metric(workload, tmp_path):
    result = _run(workload, tmp_path)
    outcome = result["outcome"]
    assert outcome.failed == 0, outcome.reasons
    assert outcome.attempted > 0
    run = _load_run_module()
    for name, __ in run.E2E:
        assert result["e2e"][name] > 0, name
    for name, value, unit in run._named_metrics(workload, result):
        assert unit and value == value, name


@pytest.mark.parametrize("workload", ("olap-drilldown", "olap-cold-durable"))
def test_wrong_answers_count_as_failures(workload, tmp_path, monkeypatch):
    """Negative control: an engine whose queries answer value + 1."""
    import repro.service.engine as engine_module

    original = engine_module.execute_query
    monkeypatch.setattr(
        engine_module,
        "execute_query",
        lambda store, query: original(store, query) + 1.0,
    )
    outcome = _run(workload, tmp_path)["outcome"]
    assert outcome.failed > 0
    assert any("expected" in reason for reason in outcome.reasons)


def test_timed_device_reads_fail_the_drilldown(tmp_path):
    """The drilldown's premise: a pool smaller than the footprint must
    be reported, not measured."""
    config = serving.DrilldownConfig(
        size=32, pool_blocks=32, epoch=10, setup_repeats=1
    )
    result = serving.run_drilldown(config, 3, SECONDS, False)
    assert result["details"]["timed_block_reads"] > 0
    assert result["outcome"].failed > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result = _run(workload, tmp_path, traced=True)
    assert result["outcome"].failed == 0, result["outcome"].reasons
    plain, traced = result["arms"]
    assert plain.phases == traced.phases >= 1
    values = per_layer_metrics(
        result["tracer"], plain, traced, result["setup"]
    )
    assert set(values) == {name for name, __, __ in PER_LAYER}
    assert all(value == value for value in values.values())
    layers = {
        "olap-drilldown": (
            "service.engine.batch_ms",
            "service.queries.execute_ms",
            "server.slicer.compile_ms",
            "server.app.serialize_ms",
        ),
        "olap-cold-durable": (
            "server.persist.save_state_ms",
            "storage.journal.write_batch_ms",
            "storage.journal.log_bytes_per_update",
            "storage.mmap_device.sync_ms",
            "service.pool.misses_per_op",
            "update.batch.shift_split_ms",
        ),
        "paper-maintenance": (
            "transform.chunked.standard_s",
            "transform.chunked.nonstandard_s",
            "update.batch.shift_split_ms",
            "append.expansion.expand_s",
            "core.plans.builds",
        ),
    }[workload]
    for name in layers:
        assert values[name] > 0, name
    trace = result["tracer"].chrome_trace()
    events = trace["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    ids = {event["args"]["span"] for event in events}
    assert all(
        event["args"]["parent"] in ids or event["args"]["parent"] == 0
        for event in events
    )
    json.dumps(trace)


def test_worker_spans_attach_to_their_tenants_batch(tmp_path):
    result = _run("olap-drilldown", tmp_path, traced=True)
    records = result["tracer"].records
    by_id = {record[0]: record for record in records}
    queries = [r for r in records if r[1] == "service.queries.execute_query"]
    assert queries
    for record in queries:
        parent = by_id[record[4]]
        assert parent[1] == "service.engine.execute_batch"
        assert parent[5] == record[5]  # same request
        assert parent[6] != record[6]  # a worker thread, not the client


@pytest.mark.parametrize(
    "workload", ("olap-cold-durable", "paper-maintenance")
)
def test_block_io_counts_repeat_exactly(workload, tmp_path):
    first = _run(workload, tmp_path, seed=5)
    second = _run(workload, tmp_path, seed=5)
    assert first["io_counts"] == second["io_counts"]
    assert first["outcome"].failed == second["outcome"].failed == 0


def test_ledger_reports_count_drift(tmp_path):
    path = str(tmp_path / "ledger.json")
    assert measure.check_ledger(path, "k", {"a": [1, 2]}) is None
    assert measure.check_ledger(path, "k", {"a": [1, 2]}) is None
    assert measure.check_ledger(path, "k", {"a": [1, 3]}) == {"a": [1, 2]}


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(200)]
    value, used = measure.tail(values, 0.99)
    assert sum(1 for v in values if v > value) >= measure.TAIL_BEYOND
    assert used < 0.99
    value, used = measure.tail(values * 10, 0.99)
    assert used == pytest.approx(0.99, abs=1e-3)


def test_self_time_subtracts_covered_children():
    assert covered_seconds([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    tracer = SpanTracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    totals = tracer.layer("outer")
    assert totals.self_s == pytest.approx(
        totals.total_s - tracer.layer("inner").total_s
    )


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    run = _load_run_module()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.E2E
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(unit) for unit in units)


def test_reference_maps_every_metric():
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, encoding="utf-8") as f:
        reference = json.load(f)
    run = _load_run_module()
    assert set(reference["end_to_end"]) == {name for name, __ in run.E2E}
    for name, unit, better in PER_LAYER:
        entry = reference["per_layer"][name]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert entry["layer"] and entry["workload"]
        # The trace's own costs move no end-to-end metric.
        assert entry["moves"] or name.startswith("trace.")
    assert set(reference["per_layer"]) == {name for name, __, __ in PER_LAYER}
    assert set(reference["workloads"]) == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "olap-drilldown",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == b""
