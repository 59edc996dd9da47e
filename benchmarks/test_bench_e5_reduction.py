"""Benchmark E5: Section 4 — online set cover with repetitions via the reduction.

Regenerates experiment E5 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e5_reduction(benchmark, bench_config):
    """Regenerate experiment E5 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E5", bench_config)
    assert result.rows
    assert all(row["all_covered"] for row in result.rows)
