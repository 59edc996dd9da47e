"""Benchmark E9: Section 2 — guess-and-double vs oracle alpha.

Regenerates experiment E9 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e9_doubling(benchmark, bench_config):
    """Regenerate experiment E9 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E9", bench_config)
    assert result.rows
    assert all(row["phases_mean"] >= 0 for row in result.rows)
