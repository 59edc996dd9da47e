"""E9 — guess-and-double estimation of OPT (Section 2 preprocessing).

Compares three configurations of the randomized algorithm on heavy-tailed
weighted workloads:

* **oracle** — ``alpha`` set to the exact optimal cost (the setting the
  theorems analyse directly);
* **doubling** — ``alpha`` estimated online by the guess-and-double wrapper
  (what a deployment would run);
* **no-classing** — ``alpha`` unset, so the ``R_big`` / ``R_small``
  preprocessing is skipped entirely.

Section 2 claims the doubling wrapper loses only a constant factor relative to
the oracle; the no-classing column shows why the preprocessing exists at all
(expensive requests are no longer protected).  The table also records how many
phases (doublings) were used.

Each configuration is one :class:`~repro.api.spec.RunSpec` sharing the cell's
master seed, so all three run on the *same* per-trial instances; the
algorithm rngs are pinned per configuration exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import FixedSeedAlgorithmFactory, Runner, RunSpec
from repro.engine.config import EngineConfig
from repro.engine.runtime import make_admission_algorithm
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.offline import solve_admission_ilp
from repro.utils.rng import as_generator, stable_seed
from repro.workloads import bimodal_costs, pareto_costs, single_edge_workload

EXPERIMENT_ID = "E9"
TITLE = "Guess-and-double vs oracle alpha vs no preprocessing"
VALIDATES = "Section 2 preprocessing (R_big / R_small, doubling) loses only constants"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("randomized", "doubling")
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


@dataclass(frozen=True)
class E9Workload:
    """Picklable heavy-tailed congestion workload for one (m, c, costs) cell."""

    m: int
    c: int
    cost_name: str

    def __call__(self, rng: np.random.Generator):
        if self.cost_name == "pareto":
            sampler = lambda count, r: pareto_costs(count, shape=1.2, random_state=r)  # noqa: E731
        else:
            sampler = lambda count, r: bimodal_costs(count, 1.0, 200.0, 0.1, random_state=r)  # noqa: E731
        return single_edge_workload(
            num_edges=self.m,
            num_requests=4 * self.m,
            capacity=self.c,
            concentration=1.3,
            cost_sampler=sampler,
            random_state=rng,
        )


@dataclass(frozen=True)
class OracleAlphaRandomized:
    """Build the randomized algorithm with ``alpha`` set to the exact OPT.

    The oracle configuration the theorems analyse: the factory solves the
    instance's ILP inside the worker and hands the optimal cost to the
    algorithm, with a pinned rng so all randomness comes from the workload.
    """

    config: EngineConfig
    seed: int
    ilp_time_limit: Optional[float]
    __name__ = "randomized[alpha=opt]"

    def __call__(self, instance, rng: np.random.Generator):
        opt = solve_admission_ilp(instance, time_limit=self.ilp_time_limit)
        return make_admission_algorithm(
            "randomized",
            instance,
            weighted=True,
            alpha=max(opt.cost, 1e-9),
            random_state=as_generator(self.seed),
            backend=self.config,
        )


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(16, 2), (32, 4)]
    return [(16, 2), (32, 4), (64, 8), (128, 8)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E9 comparison and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(4)
    runner = Runner()

    for m, c in _grid(config):
        for cost_name in ("pareto", "bimodal"):
            configurations = {
                "oracle": OracleAlphaRandomized(
                    config.engine,
                    stable_seed(config.seed, m, c, cost_name, "oracle"),
                    config.ilp_time_limit,
                ),
                "doubling": FixedSeedAlgorithmFactory(
                    "doubling",
                    config.engine,
                    stable_seed(config.seed, m, c, cost_name, "dbl"),
                    (("weighted", True),),
                ),
                "no-classing": FixedSeedAlgorithmFactory(
                    "randomized",
                    config.engine,
                    stable_seed(config.seed, m, c, cost_name, "raw"),
                    (("weighted", True),),
                ),
            }
            sums = {}
            phases_total = 0
            for label, algorithm in configurations.items():
                spec = RunSpec(
                    factory=E9Workload(m, c, cost_name),
                    algorithm=algorithm,
                    backend=config.backend,
                    trials=trials,
                    jobs=config.engine.effective_jobs,
                    # One master seed per cell: all three configurations see
                    # the same per-trial instances, exactly as the legacy
                    # shared-instance loop did.
                    seed=stable_seed(config.seed, m, c, cost_name, "e9"),
                    offline="ilp",
                    ilp_time_limit=config.ilp_time_limit,
                    label=f"E9 {cost_name} m={m} c={c} [{label}]",
                )
                cell = runner.run(spec)
                sums[label] = sum(cell.ratios())
                if label == "doubling":
                    phases_total += sum(row.extra.get("num_phases", 0) for row in cell)
            result.rows.append(
                {
                    "m": m,
                    "c": c,
                    "costs": cost_name,
                    "trials": trials,
                    "ratio_oracle": sums["oracle"] / trials,
                    "ratio_doubling": sums["doubling"] / trials,
                    "ratio_no_classing": sums["no-classing"] / trials,
                    "doubling/oracle": sums["doubling"] / max(sums["oracle"], 1e-12),
                    "phases_mean": phases_total / trials,
                }
            )
    result.notes.append(
        "doubling/oracle should stay a small constant; ratio_no_classing showcases why the "
        "R_big/R_small preprocessing matters on heavy-tailed costs."
    )
    return result


register(EXPERIMENT_ID, run)
