"""Trace-smoke check: a tiny traced serve-replay, schema-validated.

Runs a small workload replay with tracing enabled, writes the Chrome
trace-event JSON (``TRACE_smoke.json``) and the Prometheus text
exposition (``METRICS_smoke.prom``), then validates both:

* the trace file must be valid Chrome trace-event JSON — a
  ``traceEvents`` list whose entries carry the required keys per
  phase type (``M`` metadata, ``X`` complete events with numeric
  ``ts``/``dur``), so Perfetto will load it;
* the Prometheus file must parse line by line against the text
  exposition format (``# TYPE`` comments, ``name[{labels}] value``
  samples with finite values);
* attribution must be lossless: the receipt total equals the global
  IOStats delta field for field, and both replay paths agree.

Exits non-zero on any failure.  Run via ``make trace-smoke``; CI runs
it non-gating and uploads the two artifacts.
"""

import json
import re
import sys

from repro.service.replay import replay

TRACE_PATH = "TRACE_smoke.json"
PROM_PATH = "METRICS_smoke.prom"

_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$"  # sample value
)
_TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram)$"
)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def validate_chrome_trace(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    check(isinstance(doc, dict), "trace document must be a JSON object")
    events = doc.get("traceEvents")
    check(isinstance(events, list) and events, "traceEvents must be nonempty")
    slices = 0
    for event in events:
        check(isinstance(event, dict), "every event must be an object")
        check("name" in event and "ph" in event, "events need name and ph")
        check("pid" in event and "tid" in event, "events need pid and tid")
        if event["ph"] == "X":
            slices += 1
            for key in ("ts", "dur"):
                check(
                    isinstance(event[key], (int, float))
                    and event[key] >= 0,
                    f"complete events need numeric {key} >= 0",
                )
            check(isinstance(event.get("args", {}), dict), "args is a dict")
        elif event["ph"] == "M":
            check("args" in event, "metadata events need args")
        else:
            raise AssertionError(f"unexpected event phase {event['ph']!r}")
    check(slices > 0, "trace has no complete ('X') span events")
    other = doc.get("otherData", {})
    check("dropped_spans" in other, "otherData.dropped_spans missing")
    check("orphan_io" in other, "otherData.orphan_io missing")
    return len(events), slices


def validate_prometheus(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    check(text.endswith("\n"), "exposition must end with a newline")
    samples = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            check(
                _TYPE_LINE.match(line) is not None,
                f"bad comment line: {line!r}",
            )
            continue
        check(
            _METRIC_LINE.match(line) is not None,
            f"bad sample line: {line!r}",
        )
        samples += 1
    check(samples > 0, "exposition has no samples")
    return samples


def main():
    report = replay(
        shape=(32, 32),
        block_edge=8,
        pool_capacity=32,
        points=8,
        range_sums=4,
        regions=4,
        num_shards=2,
        trace=True,
        trace_path=TRACE_PATH,
    )
    with open(PROM_PATH, "w", encoding="utf-8") as handle:
        handle.write(report["prometheus"])

    check(report["results_match"], "naive and batched answers diverged")
    trace = report["trace"]
    check(
        trace["lossless"],
        "I/O attribution lost counts: "
        f"receipt={trace['receipt']['total']} "
        f"expected={trace['expected_io']}",
    )
    check(trace["dropped_spans"] == 0, "smoke trace should not drop spans")
    check(len(trace["queries"]) > 0, "no per-query receipts produced")

    events, slices = validate_chrome_trace(TRACE_PATH)
    samples = validate_prometheus(PROM_PATH)
    print(
        f"trace-smoke OK: {events} events ({slices} spans) in "
        f"{TRACE_PATH}, {samples} samples in {PROM_PATH}, "
        f"lossless attribution over {trace['spans']} spans"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
