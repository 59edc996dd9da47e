"""Benchmark E1: Theorem 2 — fractional algorithm vs fractional OPT.

Regenerates experiment E1 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e1_fractional(benchmark, bench_config):
    """Regenerate experiment E1 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E1", bench_config)
    assert result.rows
    assert all(row["ratio/bound"] <= 8.0 for row in result.rows)
