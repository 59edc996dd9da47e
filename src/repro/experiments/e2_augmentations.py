"""E2 — Lemma 1: the number of weight augmentations is ``O(alpha log(gc))``.

The experiment runs the fractional algorithm with the optimal fractional cost
``alpha`` supplied (the setting Lemma 1 analyses), counts the weight
augmentations actually performed, and compares them with the explicit bound
``alpha * log2(2 g c)``.  The reported ``augs/bound`` column must never exceed
1 if the implementation matches the proof.

Each grid cell is one :class:`~repro.api.spec.RunSpec`; the augmentation
count and the mechanism parameters (``g``, ``c``, ``alpha``) come back on
each trial row's ``extra``, so the bound is evaluated from the result set
rather than from a live algorithm object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import Runner, RunSpec
from repro.core.bounds import lemma1_augmentation_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.experiments.e1_fractional import OracleAlphaFractional
from repro.utils.rng import stable_seed
from repro.workloads import single_edge_workload, uniform_costs

EXPERIMENT_ID = "E2"
TITLE = "Weight-augmentation count vs Lemma 1 bound"
VALIDATES = "Lemma 1 (at most O(alpha log(gc)) augmentations)"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("fractional",)
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


@dataclass(frozen=True)
class E2Workload:
    """Picklable congestion workload builder for one (m, c) grid cell."""

    m: int
    c: int

    def __call__(self, rng: np.random.Generator):
        return single_edge_workload(
            num_edges=self.m,
            num_requests=5 * self.m,
            capacity=self.c,
            concentration=1.0,
            cost_sampler=lambda count, r: uniform_costs(count, 1.0, 4.0, random_state=r),
            random_state=rng,
        )


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(8, 2), (16, 4), (32, 4)]
    return [(8, 2), (16, 4), (32, 4), (64, 8), (128, 8), (256, 16)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E2 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(5)
    runner = Runner()

    for m, c in _grid(config):
        spec = RunSpec(
            factory=E2Workload(m, c),
            algorithm=OracleAlphaFractional(config.engine),
            backend=config.backend,
            trials=trials,
            jobs=config.engine.effective_jobs,
            seed=stable_seed(config.seed, m, c, "e2"),
            label=f"E2 m={m} c={c}",
        )
        worst_fraction = 0.0
        total_augs = 0
        total_bound = 0.0
        violations = 0
        for row in runner.run(spec):
            augmentations = int(row.extra["num_augmentations"])
            bound = lemma1_augmentation_bound(
                row.extra["alpha"], row.extra["g"], row.extra["c"]
            )
            total_augs += augmentations
            total_bound += bound
            if bound > 0:
                worst_fraction = max(worst_fraction, augmentations / bound)
            if augmentations > bound + 1e-9:
                violations += 1
        result.rows.append(
            {
                "m": m,
                "c": c,
                "trials": trials,
                "augmentations_total": total_augs,
                "bound_total": total_bound,
                "augs/bound_worst": worst_fraction,
                "violations": violations,
            }
        )
    result.notes.append("Lemma 1 requires augs/bound_worst <= 1 and violations == 0 everywhere.")
    return result


register(EXPERIMENT_ID, run)
