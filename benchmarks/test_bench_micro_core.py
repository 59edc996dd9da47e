"""Micro-benchmarks of the library's hot paths.

These are not experiments from the paper; they track the implementation's own
performance: the weight mechanism's per-arrival cost, the bicriteria augmentation cost, the reduction
solver's per-element cost, and the offline solvers.
"""

from __future__ import annotations

import pytest

from repro.core.bicriteria import BicriteriaOnlineSetCover
from repro.core.fractional import FractionalAdmissionControl
from repro.core.protocols import run_admission, run_setcover
from repro.core.randomized import RandomizedAdmissionControl
from repro.core.setcover_reduction import OnlineSetCoverViaAdmissionControl
from repro.engine.benchmarking import (
    SCALING_THROUGHPUT_FLOOR,
    run_scaling_bench,
    run_weight_update_bench,
    scaling_100k_workload,
    scaling_workload,
    weight_update_workload,
)
from repro.engine.registry import WEIGHT_BACKENDS
from repro.offline import solve_admission_ilp, solve_admission_lp, solve_set_multicover_ilp
from repro.workloads import overloaded_edge_adversary, random_setcover_instance, single_edge_workload

ADMISSION_INSTANCE = single_edge_workload(64, 512, capacity=4, concentration=1.3, random_state=0)
ADVERSARIAL_INSTANCE = overloaded_edge_adversary(64, 4, num_hot_edges=8, random_state=0)
SETCOVER_INSTANCE = random_setcover_instance(80, 32, 160, random_state=0)

#: Canonical weight-update stress workload (>= 1000 edges, alive sets in the
#: thousands on the hot edges) — the same one ``python -m repro bench`` gates.
WEIGHT_UPDATE_WORKLOAD = weight_update_workload(quick=True)


@pytest.mark.parametrize("backend", WEIGHT_BACKENDS.keys())
def test_bench_weight_update_backend(benchmark, backend, bench_recorder):
    """Per-backend cost of the multiplicative weight-update hot loop.

    The acceptance target for the vectorized backend is >= 3x over the scalar
    reference on this workload; compare the two parametrized runs (or run
    ``make bench-smoke``, which prints the speedup directly).
    """

    def run():
        return run_weight_update_bench(backend, WEIGHT_UPDATE_WORKLOAD)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    # Record the best of two rounds: one-shot wall clocks on a shared machine
    # are noisy, and the tracked number should reflect the code, not the load.
    result = min((result, run()), key=lambda r: r.seconds)
    bench_recorder(
        f"weight_update[{backend}]",
        result.seconds,
        backend,
        augmentations=result.augmentations,
        requests=result.requests,
        requests_per_sec=result.requests_per_sec,
    )
    assert result.augmentations > 0
    assert result.fractional_cost > 0.0


#: Canonical large-N workload: >= 10k requests through the full compiled
#: fractional pipeline (intern + CSR + classify + augment), per backend.
SCALING_WORKLOAD = scaling_workload()


@pytest.mark.parametrize("backend", WEIGHT_BACKENDS.keys())
def test_bench_scaling_10k_backend(benchmark, backend, bench_recorder):
    """End-to-end cost of the compiled fractional pipeline at 10k requests.

    Runs through the whole-trace vectorized executor (the production default)
    and enforces the absolute per-backend throughput floor the CLI bench gate
    uses: backends listed in ``SCALING_THROUGHPUT_FLOOR`` must clear their
    floor on the better of two rounds.
    """

    def run():
        return run_scaling_bench(backend, SCALING_WORKLOAD)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    result = min((result, run()), key=lambda r: r.seconds)
    bench_recorder(
        f"scaling_10k[{backend}]",
        result.seconds,
        backend,
        augmentations=result.augmentations,
        requests=SCALING_WORKLOAD.num_requests,
        requests_per_sec=result.requests_per_sec,
    )
    assert result.augmentations > 0
    assert result.fractional_cost > 0.0
    floor = SCALING_THROUGHPUT_FLOOR.get(backend)
    if floor is not None:
        assert result.requests_per_sec >= floor, (
            f"scaling_10k[{backend}] at {result.requests_per_sec:,.0f} req/s is below "
            f"the {floor:,.0f} req/s absolute floor"
        )


def test_bench_scaling_10k_scalar_numpy(benchmark, bench_recorder):
    """Per-arrival escape hatch (``vectorized=False``) on the same workload.

    Tracked so the dispatch-overhead delta the vectorized executor removes
    stays visible PR-over-PR; never gated (the escape hatch optimises for
    debuggability, not throughput).
    """

    def run():
        return run_scaling_bench("numpy", SCALING_WORKLOAD, vectorized=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    result = min((result, run()), key=lambda r: r.seconds)
    bench_recorder(
        "scaling_10k_scalar[numpy]",
        result.seconds,
        "numpy",
        augmentations=result.augmentations,
        requests=SCALING_WORKLOAD.num_requests,
        requests_per_sec=result.requests_per_sec,
    )
    assert result.augmentations > 0


#: 10x the arrivals, same shape: amortizes fixed costs away so the number is
#: almost purely the steady-state executor throughput.
SCALING_100K_WORKLOAD = scaling_100k_workload()


def test_bench_scaling_100k_numpy(benchmark, bench_recorder):
    """Steady-state executor throughput at 100k requests (single round)."""

    def run():
        return run_scaling_bench("numpy", SCALING_100K_WORKLOAD, name="scaling_100k")

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    bench_recorder(
        "scaling_100k[numpy]",
        result.seconds,
        "numpy",
        augmentations=result.augmentations,
        requests=SCALING_100K_WORKLOAD.num_requests,
        requests_per_sec=result.requests_per_sec,
    )
    assert result.augmentations > 0
    assert result.fractional_cost > 0.0


def test_bench_fractional_weight_mechanism(benchmark):
    """Per-sequence cost of the Section-2 fractional weight mechanism."""

    def run():
        algo = FractionalAdmissionControl.for_instance(ADMISSION_INSTANCE)
        algo.process_sequence(ADMISSION_INSTANCE.requests)
        return algo.fractional_cost()

    cost = benchmark(run)
    assert cost >= 0.0


def test_bench_randomized_admission(benchmark):
    """Per-sequence cost of the Section-3 randomized algorithm."""

    def run():
        algo = RandomizedAdmissionControl.for_instance(ADVERSARIAL_INSTANCE, random_state=0)
        return run_admission(algo, ADVERSARIAL_INSTANCE).rejection_cost

    cost = benchmark(run)
    assert cost >= 0.0


def test_bench_bicriteria_setcover(benchmark):
    """Per-sequence cost of the Section-5 bicriteria algorithm (derandomised selection)."""

    def run():
        algo = BicriteriaOnlineSetCover(SETCOVER_INSTANCE.system, eps=0.2, track_potentials=False)
        return run_setcover(algo, SETCOVER_INSTANCE).cost

    cost = benchmark(run)
    assert cost > 0.0


def test_bench_reduction_setcover(benchmark):
    """Per-sequence cost of the Section-4 reduction solver."""

    def run():
        algo = OnlineSetCoverViaAdmissionControl(SETCOVER_INSTANCE.system, random_state=0)
        return run_setcover(algo, SETCOVER_INSTANCE).cost

    cost = benchmark(run)
    assert cost > 0.0


def test_bench_offline_admission_lp(benchmark):
    """HiGHS LP solve of the fractional admission optimum."""
    result = benchmark(solve_admission_lp, ADMISSION_INSTANCE)
    assert result.cost >= 0.0


def test_bench_offline_admission_ilp(benchmark):
    """HiGHS MILP solve of the exact admission optimum."""
    result = benchmark(lambda: solve_admission_ilp(ADVERSARIAL_INSTANCE, time_limit=20.0))
    assert result.cost >= 0.0


def test_bench_offline_set_multicover_ilp(benchmark):
    """HiGHS MILP solve of the exact set multi-cover optimum."""
    result = benchmark(
        lambda: solve_set_multicover_ilp(
            SETCOVER_INSTANCE.system, SETCOVER_INSTANCE.demands(), time_limit=20.0
        )
    )
    assert result.cost >= 0.0
