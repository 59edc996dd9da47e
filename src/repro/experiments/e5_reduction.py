"""E5 — Section 4: online set cover with repetitions via the admission-control reduction.

Runs :class:`~repro.core.setcover_reduction.OnlineSetCoverViaAdmissionControl`
(the paper's ``O(log m log n)`` / ``O(log^2(mn))`` randomized algorithm) on
random and adversarial set systems with repeated arrivals, verifying that

* the produced cover always satisfies every element's demand (correctness of
  the reduction), and
* the cost ratio against the exact multi-cover optimum stays within the
  polylog bound.

Each (workload, n, m) cell is one :class:`~repro.api.spec.RunSpec` with
``problem="setcover"``; seeds and factories match the legacy trial runner,
so the numbers are unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.api import Runner, RunSpec
from repro.core.bounds import set_cover_randomized_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.instances.setcover import SetCoverInstance
from repro.utils.rng import stable_seed
from repro.workloads import (
    disjoint_blocks_instance,
    random_setcover_instance,
    repetition_heavy_arrivals,
)
from repro.workloads.setcover_random import random_set_system

EXPERIMENT_ID = "E5"
TITLE = "Online set cover with repetitions via the reduction"
VALIDATES = "Section 4 reduction; O(log m log n) unweighted / O(log^2(mn)) weighted"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ()
USES_SETCOVER = ("reduction",)

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(16, 8), (32, 12), (48, 16)]
    return [(16, 8), (32, 12), (48, 16), (96, 24), (160, 32), (256, 48)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E5 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(5)
    runner = Runner()

    def random_instance(n, m, rng):
        return random_setcover_instance(
            num_elements=n,
            num_sets=m,
            num_arrivals=2 * n,
            membership_probability=min(0.5, 4.0 / m + 0.1),
            random_state=rng,
        )

    def repetition_instance(n, m, rng):
        system = random_set_system(n, m, min(0.5, 4.0 / m + 0.1), random_state=rng)
        arrivals = repetition_heavy_arrivals(system, random_state=rng)
        return SetCoverInstance(system, arrivals, name="repetition-heavy")

    def blocks_instance(n, m, rng):
        num_blocks = max(2, m // 4)
        block_size = max(2, n // num_blocks)
        return disjoint_blocks_instance(
            num_blocks=num_blocks,
            block_size=block_size,
            blocks_requested=max(1, num_blocks // 2),
            random_state=rng,
        )

    workloads = {
        "random-arrivals": random_instance,
        "repetition-heavy": repetition_instance,
        "disjoint-blocks": blocks_instance,
    }

    for n, m in _grid(config):
        bound = set_cover_randomized_bound(m, n, weighted=False)
        for workload_name, make in workloads.items():
            spec = RunSpec(
                problem="setcover",
                factory=lambda rng, make=make, n=n, m=m: make(n, m, rng),
                algorithm="reduction",
                backend=config.backend,
                trials=trials,
                jobs=config.engine.effective_jobs,
                seed=stable_seed(config.seed, n, m, workload_name, "e5"),
                offline="ilp",
                ilp_time_limit=config.ilp_time_limit,
                label=f"{workload_name} n={n} m={m}",
            )
            cell = runner.run(spec)
            stats = cell.ratio_stats()
            result.rows.append(
                {
                    "workload": workload_name,
                    "n": n,
                    "m": m,
                    "trials": trials,
                    "ratio_mean": stats.mean,
                    "ratio_max": stats.maximum,
                    "bound": bound.value,
                    "ratio/bound": stats.mean / bound.value,
                    "all_covered": cell.all_feasible(),
                }
            )
    result.notes.append("all_covered must be 'yes' everywhere: the reduction always yields a feasible multi-cover.")
    return result


register(EXPERIMENT_ID, run)
