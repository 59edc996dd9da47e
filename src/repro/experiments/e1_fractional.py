"""E1 — Theorem 2: the fractional algorithm is ``O(log(mc))``-competitive.

For a sweep of ``(m, c)`` the experiment runs the fractional algorithm (with
``alpha`` set to the optimal fractional cost, as the theorem assumes after the
guess-and-double reduction) on congested single-edge and adversarial workloads,
and reports the ratio of the fractional online cost to the optimal fractional
cost next to the ``log2(mc)`` (weighted) / ``log2(c)`` (unweighted) bound.
The quantity to watch is ``ratio / bound``: Theorem 2 says it stays bounded by
a constant as ``m`` and ``c`` grow.

Each grid cell is one :class:`~repro.api.spec.RunSpec` executed by the
:class:`~repro.api.runner.Runner`; the workload builders and the oracle-alpha
algorithm factory are module-level dataclasses so cells can fan out over
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import Runner, RunSpec
from repro.core.bounds import fractional_admission_bound
from repro.engine.config import EngineConfig
from repro.engine.runtime import make_admission_algorithm
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.offline import solve_admission_lp_cached
from repro.utils.rng import stable_seed
from repro.workloads import overloaded_edge_adversary, pareto_costs, single_edge_workload

EXPERIMENT_ID = "E1"
TITLE = "Fractional admission control vs fractional OPT"
VALIDATES = "Theorem 2 (O(log mc) weighted, O(log c) unweighted)"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("fractional",)
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


@dataclass(frozen=True)
class E1Workload:
    """Picklable workload builder for one (m, c, weighted) grid cell."""

    m: int
    c: int
    weighted: bool

    def __call__(self, rng: np.random.Generator):
        if self.weighted:
            return single_edge_workload(
                num_edges=self.m,
                num_requests=4 * self.m,
                capacity=self.c,
                concentration=1.2,
                cost_sampler=lambda count, r: pareto_costs(count, shape=1.5, random_state=r),
                random_state=rng,
            )
        return overloaded_edge_adversary(
            num_edges=self.m,
            capacity=self.c,
            num_hot_edges=max(2, self.m // 8),
            overload_factor=2.5,
            random_state=rng,
        )


@dataclass(frozen=True)
class OracleAlphaFractional:
    """Build the fractional algorithm with ``alpha`` set to the LP optimum.

    Theorem 2 analyses the algorithm *after* the guess-and-double reduction,
    i.e. with the optimal fractional cost supplied; the factory computes it
    per instance inside the worker so specs stay declarative.
    """

    config: EngineConfig
    __name__ = "fractional[alpha=opt]"

    def __call__(self, instance, rng: np.random.Generator):
        # Cached: the trial evaluation solves the same instance's LP as the
        # comparator, so the pair costs one solve per instance, not two.
        opt = solve_admission_lp_cached(instance)
        return make_admission_algorithm(
            "fractional", instance, alpha=max(opt.cost, 1e-9), backend=self.config
        )


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(8, 2), (16, 4), (32, 8)]
    return [(8, 2), (16, 4), (32, 8), (64, 8), (128, 16), (256, 32)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E1 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(5)
    runner = Runner()

    for m, c in _grid(config):
        for weighted in (False, True):
            spec = RunSpec(
                factory=E1Workload(m, c, weighted),
                algorithm=(
                    OracleAlphaFractional(config.engine) if weighted else "fractional"
                ),
                backend=config.backend,
                trials=trials,
                jobs=config.engine.effective_jobs,
                seed=stable_seed(config.seed, m, c, weighted),
                label=f"E1 m={m} c={c} weighted={weighted}",
            )
            ratios = runner.run(spec).ratios()
            bound = fractional_admission_bound(m, c, weighted=weighted)
            mean_ratio = sum(ratios) / len(ratios)
            result.rows.append(
                {
                    "m": m,
                    "c": c,
                    "weighted": weighted,
                    "trials": trials,
                    "ratio_mean": mean_ratio,
                    "ratio_max": max(ratios),
                    "bound": bound.value,
                    "ratio/bound": mean_ratio / bound.value,
                }
            )
    result.notes.append(
        "ratio/bound should stay roughly constant (the hidden O(1)) as m and c grow."
    )
    return result


register(EXPERIMENT_ID, run)
