"""Multi-process shard-pool scale-out benchmark: req/s per worker count.

Runs the same sweep the CLI bench gate times (``shard_scaling_{n}w``): the
100k-arrival scaling shape copied into 64 namespaces, arrivals interleaved
across them, streamed through ``ProcessShardPool.submit_stream`` with 1/2/4/8
worker processes.  The trace partitions exactly, so every worker count must
compute one answer.  Per-count throughput lands in ``BENCH_engine.json`` so
the pool's scaling trajectory is tracked PR-over-PR.

The >= 2.5x speedup assertion at 4 workers only fires when the host actually
exposes >= 4 CPUs (``available_cpus()``): on a single-core runner every worker
count measures the same core plus IPC overhead, so the sweep records honest
flat numbers and the scaling claim is checked where it is physically testable.
"""

from __future__ import annotations

import pytest

from repro.engine.benchmarking import (
    SHARD_SCALING_MIN_SPEEDUP,
    SHARD_SCALING_WORKER_COUNTS,
    available_cpus,
    check_shard_scaling,
    run_shard_scaling_suite,
    scaling_100k_workload,
)

#: The canonical gate workload — the scaling_100k shape, namespaced by
#: ``ScalingWorkload.namespaced_instance``.
SHARD_WORKLOAD = scaling_100k_workload()


def test_bench_shard_scaling_sweep(benchmark, bench_recorder):
    """Aggregate req/s of the shard pool at 1/2/4/8 workers, one answer."""

    def run():
        return run_shard_scaling_suite("numpy", SHARD_WORKLOAD)

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    cpus = available_cpus()
    for result in results:
        bench_recorder(
            f"{result.name}[{result.backend}]",
            result.seconds,
            result.backend,
            augmentations=result.augmentations,
            requests=result.requests,
            requests_per_sec=result.requests_per_sec,
            cpus=cpus,
        )
        assert result.requests == SHARD_WORKLOAD.num_requests
        assert result.fractional_cost > 0.0

    # Namespaces partition the edges, so the worker count cannot change a
    # decision: augmentations match exactly, and the summed cost matches up
    # to the order the per-shard costs are added in.
    assert results[0].augmentations > 0
    reference = results[0].fractional_cost
    for result in results:
        assert result.augmentations == results[0].augmentations, result.name
        assert abs(result.fractional_cost - reference) <= 1e-9 * abs(reference), result.name

    lines, failures = check_shard_scaling(results)
    for line in lines:
        print(line)
    assert not failures, failures

    if cpus >= 4:
        by_count = {int(r.name[len("shard_scaling_") : -1]): r for r in results}
        speedup = by_count[4].requests_per_sec / by_count[1].requests_per_sec
        assert speedup >= SHARD_SCALING_MIN_SPEEDUP, (
            f"4-worker pool at {speedup:.2f}x over 1 worker on a {cpus}-CPU host "
            f"(target >= {SHARD_SCALING_MIN_SPEEDUP:.1f}x)"
        )


@pytest.mark.parametrize("count", SHARD_SCALING_WORKER_COUNTS)
def test_shard_counts_are_gated(count):
    """Every swept worker count parses back out of its benchmark name."""
    name = f"shard_scaling_{count}w"
    assert name.startswith("shard_scaling_") and name.endswith("w")
    assert int(name[len("shard_scaling_") : -1]) == count
