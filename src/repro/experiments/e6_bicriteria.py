"""E6 — Theorem 7: the deterministic bicriteria algorithm.

Sweeps ``(n, m)`` and the slack ``eps``; for every configuration the experiment
reports the measured cost ratio against the exact (full-coverage) multi-cover
optimum, the worst per-element coverage fraction actually achieved, and the
``log2(m) log2(n)`` bound.  Theorem 7's two claims map to two columns:

* ``ratio/bound`` stays bounded (competitiveness), and
* ``min_coverage_fraction >= 1 - eps`` (the bicriteria guarantee).

Each (n, m, eps) cell is one :class:`~repro.api.spec.RunSpec` with
``problem="setcover"``; the per-element coverage fractions are extracted by a
measurement probe that runs in the worker while the algorithm object is
alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.api import Runner, RunSpec
from repro.core.bounds import bicriteria_set_cover_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.instances.setcover import SetCoverInstance
from repro.utils.rng import stable_seed
from repro.workloads.setcover_random import random_set_system, repetition_heavy_arrivals

EXPERIMENT_ID = "E6"
TITLE = "Deterministic bicriteria online set cover"
VALIDATES = "Theorem 7 (O(log m log n) competitive with (1-eps)k coverage)"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ()
USES_SETCOVER = ("bicriteria",)

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


@dataclass(frozen=True)
class E6Workload:
    """Picklable repetition-heavy set-cover workload for one (n, m) cell."""

    n: int
    m: int

    def __call__(self, rng: np.random.Generator) -> SetCoverInstance:
        system = random_set_system(
            self.n, self.m, min(0.5, 4.0 / self.m + 0.1), random_state=rng
        )
        arrivals = repetition_heavy_arrivals(system, random_state=rng)
        return SetCoverInstance(system, arrivals, name=f"repetition n={self.n} m={self.m}")


def coverage_probe(instance: SetCoverInstance, algorithm: Any) -> Dict[str, Any]:
    """Measure the worst per-element coverage fraction of a finished run."""
    min_fraction = 1.0
    for element, demand in instance.demands().items():
        fraction = algorithm.coverage(element) / demand if demand else 1.0
        min_fraction = min(min_fraction, fraction)
    return {
        "min_coverage_fraction": min_fraction,
        "num_augmentations": algorithm.num_augmentations,
    }


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(16, 8), (32, 16)]
    return [(16, 8), (32, 16), (64, 24), (128, 32), (192, 48)]


def _eps_values(config: ExperimentConfig):
    if config.quick:
        return [0.1, 0.3]
    return [0.05, 0.1, 0.2, 0.3, 0.5]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E6 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(4)
    runner = Runner()

    for n, m in _grid(config):
        bound = bicriteria_set_cover_bound(m, n)
        for eps in _eps_values(config):
            spec = RunSpec(
                problem="setcover",
                factory=E6Workload(n, m),
                algorithm="bicriteria",
                algorithm_params={"eps": eps},
                backend=config.backend,
                trials=trials,
                jobs=config.engine.effective_jobs,
                seed=stable_seed(config.seed, n, m, eps, "e6"),
                offline="ilp",
                ilp_time_limit=config.ilp_time_limit,
                bicriteria_bound=True,
                probe=coverage_probe,
                label=f"E6 n={n} m={m} eps={eps}",
            )
            cell = runner.run(spec)
            ratios = cell.ratios()
            min_fraction = min(row.extra["min_coverage_fraction"] for row in cell)
            augmentations = sum(int(row.extra["num_augmentations"]) for row in cell)
            mean_ratio = sum(ratios) / len(ratios)
            result.rows.append(
                {
                    "n": n,
                    "m": m,
                    "eps": eps,
                    "trials": trials,
                    "ratio_mean": mean_ratio,
                    "ratio_max": max(ratios),
                    "bound": bound.value,
                    "ratio/bound": mean_ratio / bound.value,
                    "min_coverage_fraction": min_fraction,
                    "coverage_ok": min_fraction >= (1.0 - eps) - 1e-9,
                    "augmentations": augmentations,
                }
            )
    result.notes.append(
        "coverage_ok must hold everywhere; the offline optimum covers demands fully, so the "
        "ratio compares a (1-eps)-coverage solution against a full-coverage optimum, as in the paper."
    )
    return result


register(EXPERIMENT_ID, run)
