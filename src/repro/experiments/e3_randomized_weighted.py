"""E3 — Theorem 3: the randomized algorithm is ``O(log^2(mc))``-competitive (weighted).

The experiment runs the guess-and-double randomized algorithm (the full
pipeline a user would deploy: no oracle knowledge of OPT) on weighted
congestion workloads with heavy-tailed and bimodal costs, and reports the
measured competitive ratio against the exact integral optimum next to the
``log2(mc)^2`` bound.

Every (workload, m, c) cell is one :class:`~repro.api.spec.RunSpec` executed
by the :class:`~repro.api.runner.Runner`; seeds, factories and the offline
comparator are exactly those of the legacy trial runner, so the numbers are
unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.api import Runner, RunSpec
from repro.core.bounds import randomized_admission_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.utils.rng import stable_seed
from repro.workloads import (
    bimodal_costs,
    cheap_then_expensive_adversary,
    pareto_costs,
    single_edge_workload,
)

EXPERIMENT_ID = "E3"
TITLE = "Randomized admission control, weighted workloads"
VALIDATES = "Theorem 3 (O(log^2(mc)) competitive, weighted)"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("doubling",)
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(8, 2), (16, 4), (32, 4)]
    return [(8, 2), (16, 4), (32, 4), (64, 8), (128, 8)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E3 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(5)
    runner = Runner()

    workloads = {
        "pareto-single-edge": lambda m, c, rng: single_edge_workload(
            num_edges=m,
            num_requests=4 * m,
            capacity=c,
            concentration=1.2,
            cost_sampler=lambda count, r: pareto_costs(count, shape=1.5, random_state=r),
            random_state=rng,
        ),
        "bimodal-single-edge": lambda m, c, rng: single_edge_workload(
            num_edges=m,
            num_requests=4 * m,
            capacity=c,
            concentration=1.5,
            cost_sampler=lambda count, r: bimodal_costs(count, 1.0, 50.0, 0.2, random_state=r),
            random_state=rng,
        ),
        "cheap-then-expensive": lambda m, c, rng: cheap_then_expensive_adversary(
            num_edges=m, capacity=c, expensive_cost=25.0
        ),
    }

    for m, c in _grid(config):
        bound = randomized_admission_bound(m, c, weighted=True)
        for workload_name, make in workloads.items():
            spec = RunSpec(
                factory=lambda rng, make=make, m=m, c=c: make(m, c, rng),
                algorithm="doubling",
                algorithm_params={"weighted": True},
                backend=config.backend,
                trials=trials,
                jobs=config.engine.effective_jobs,
                seed=stable_seed(config.seed, m, c, workload_name),
                offline="ilp",
                ilp_time_limit=config.ilp_time_limit,
                label=f"{workload_name} m={m} c={c}",
            )
            cell = runner.run(spec)
            stats = cell.ratio_stats()
            result.rows.append(
                {
                    "workload": workload_name,
                    "m": m,
                    "c": c,
                    "trials": trials,
                    "ratio_mean": stats.mean,
                    "ratio_max": stats.maximum,
                    "bound": bound.value,
                    "ratio/bound": stats.mean / bound.value,
                    "feasible": cell.all_feasible(),
                }
            )
    result.notes.append(
        "The measured ratio should grow no faster than log^2(mc); ratio/bound stays bounded."
    )
    return result


register(EXPERIMENT_ID, run)
