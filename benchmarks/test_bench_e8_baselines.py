"""Benchmark E8: Section 1 motivation — paper's algorithms vs baselines.

Regenerates experiment E8 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e8_baselines(benchmark, bench_config):
    """Regenerate experiment E8 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E8", bench_config)
    assert result.rows
    assert all(row["feasible"] for row in result.rows)
