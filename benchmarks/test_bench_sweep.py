"""End-to-end benchmark of the scenario sweep pipeline.

Runs the same small scenario x algorithm matrix the CLI bench gate times
(``sweep_small``), per backend, plus a slightly wider matrix that includes
the randomized algorithm — covering workload generation, compilation, the
trial executor, the LP comparator and the aggregation layer in one number.
Both land in ``BENCH_engine.json`` so the scenario pipeline's performance
trajectory is tracked PR-over-PR next to the experiments'.
"""

from __future__ import annotations

import pytest

from repro.engine.benchmarking import run_sweep_bench, sweep_workload
from repro.engine.config import EngineConfig
from repro.engine.registry import WEIGHT_BACKENDS
from repro.engine.sweep import run_sweep_specs
from repro.scenarios import get_scenario

#: The canonical gate matrix (two scenarios x fractional, one trial each).
SWEEP_WORKLOAD = sweep_workload()


@pytest.mark.parametrize("backend", WEIGHT_BACKENDS.keys())
def test_bench_sweep_small_backend(benchmark, backend, bench_recorder):
    """Per-backend cost of the gate's sweep matrix (``sweep_small``)."""

    def run():
        return run_sweep_bench(backend, SWEEP_WORKLOAD)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    # Best of two rounds: one-shot wall clocks on a shared machine are noisy.
    result = min((result, run()), key=lambda r: r.seconds)
    bench_recorder(
        f"sweep_small[{backend}]",
        result.seconds,
        backend,
        cells=result.augmentations,
    )
    assert result.augmentations == len(SWEEP_WORKLOAD.scenarios) * len(SWEEP_WORKLOAD.algorithms)
    assert result.fractional_cost >= 1.0  # mean competitive ratio vs an LP lower bound


def test_bench_sweep_matrix(benchmark, bench_recorder):
    """A wider matrix: three scenarios x (fractional + randomized), numpy backend."""

    def run():
        scenarios = ["bursty", "zipf_costs", "flash_crowd"]
        return run_sweep_specs(
            [get_scenario(key) for key in scenarios],
            ["fractional", "randomized"],
            config=EngineConfig(backend="numpy"),
            num_trials=1,
            seed=20050718,
            offline="lp",
            ilp_time_limit=20.0,
            overrides={key: (("num_requests", 300),) for key in scenarios},
        )

    import time

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    bench_recorder("sweep_matrix", time.perf_counter() - start, "numpy", cells=len(result.rows()))
    print()
    print(result.report())
    rows = result.rows()
    assert len(rows) == 6
    assert all(row["feasible"] for row in rows)
