"""Benchmark E3: Theorem 3 — randomized weighted admission control.

Regenerates experiment E3 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e3_randomized_weighted(benchmark, bench_config):
    """Regenerate experiment E3 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E3", bench_config)
    assert result.rows
    assert all(row["feasible"] for row in result.rows)
