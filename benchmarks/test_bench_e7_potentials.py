"""Benchmark E7: Lemmas 1, 5, 6 — potential-function invariants.

Regenerates experiment E7 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e7_potentials(benchmark, bench_config):
    """Regenerate experiment E7 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E7", bench_config)
    assert result.rows
    assert all(row["invariants_ok"] == row["trials"] for row in result.rows)
