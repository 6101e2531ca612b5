"""The repository's benchmark: serving path and paper maintenance.

Three seeded workloads (``olap-drilldown``, ``olap-cold-durable``,
``paper-maintenance``) drive the program in-process and report the
end-to-end metrics named in ``BENCHMARK.json``; a traced run wraps the
public functions of each layer at run time and reports per-layer
metrics.  ``perfbench/run.py`` is the command line.
"""
