"""End-to-end and per-layer benchmark of the admission-control service.

Run it from the repository root::

    python3 perfbench/run.py --workload replay_hotspot --seed 1 --seconds 40 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and metrics;
:mod:`perfbench.run` documents how each one is measured.
"""
