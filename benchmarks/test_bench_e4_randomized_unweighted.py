"""Benchmark E4: Theorem 4 — randomized unweighted admission control.

Regenerates experiment E4 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e4_randomized_unweighted(benchmark, bench_config):
    """Regenerate experiment E4 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E4", bench_config)
    assert result.rows
    assert all(row["feasible"] for row in result.rows)
