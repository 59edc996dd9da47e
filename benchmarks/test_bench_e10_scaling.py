"""Benchmark E10: Scaling — ratio growth and runtime vs instance size.

Regenerates experiment E10 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e10_scaling(benchmark, bench_config):
    """Regenerate experiment E10 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E10", bench_config)
    assert result.rows
    assert all(row["runtime_s"] >= 0 for row in result.rows)
