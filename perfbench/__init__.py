"""Benchmark of the cubulation pipeline.

Run one workload with

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 45 --trace 0

or every workload in turn with ``--workload all``.  ``spec`` declares the
workloads and metrics (``BENCHMARK.json`` is generated from it with
``--write-spec``), ``workloads`` builds the seeded inputs, jobs and
correctness gates, ``measure`` times them, and ``tracer`` wraps the public
functions of ``cubulations`` for the per-layer run.
"""
