"""Benchmark E6: Theorem 7 — deterministic bicriteria online set cover.

Regenerates experiment E6 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e6_bicriteria(benchmark, bench_config):
    """Regenerate experiment E6 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E6", bench_config)
    assert result.rows
    assert all(row["coverage_ok"] for row in result.rows)
