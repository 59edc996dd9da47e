"""Benchmark E2: Lemma 1 — weight-augmentation count bound.

Regenerates experiment E2 (``repro list experiments`` indexes them) and
prints its table.  The benchmark time is the wall-clock cost of reproducing
the whole experiment row set (quick grid, one trial).
"""

from conftest import run_and_report


def test_bench_e2_augmentations(benchmark, bench_config):
    """Regenerate experiment E2 and sanity-check its headline claim."""
    result = run_and_report(benchmark, "E2", bench_config)
    assert result.rows
    assert all(row["violations"] == 0 for row in result.rows)
