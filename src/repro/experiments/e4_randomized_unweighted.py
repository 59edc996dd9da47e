"""E4 — Theorem 4: the unweighted randomized algorithm is ``O(log m log c)``-competitive.

Unit-cost congestion workloads, sweeping ``m`` and ``c`` independently so the
two logarithmic factors can be seen separately.  The comparator is the exact
integral optimum; the bound column is ``log2(m) * log2(c)``.

Each (workload, m, c) cell is one :class:`~repro.api.spec.RunSpec` with the
legacy seeds and factories, so the numbers are unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.api import Runner, RunSpec
from repro.core.bounds import randomized_admission_bound
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.utils.rng import stable_seed
from repro.workloads import overloaded_edge_adversary, repeated_overload_adversary

EXPERIMENT_ID = "E4"
TITLE = "Randomized admission control, unweighted workloads"
VALIDATES = "Theorem 4 (O(log m log c) competitive, unweighted)"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("randomized",)
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _grid(config: ExperimentConfig):
    if config.quick:
        return [(8, 2), (16, 4), (32, 8)]
    return [(8, 2), (16, 4), (32, 8), (64, 8), (128, 16), (256, 16)]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the E4 sweep and return the result table."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    trials = config.scaled_trials(5)
    runner = Runner()

    workloads = {
        "overloaded-edges": lambda m, c, rng: overloaded_edge_adversary(
            num_edges=m,
            capacity=c,
            num_hot_edges=max(2, m // 8),
            overload_factor=3.0,
            random_state=rng,
        ),
        "repeated-overload": lambda m, c, rng: repeated_overload_adversary(
            capacity=c, num_waves=max(2, m // 8), num_side_edges=max(2, m - 1), random_state=rng
        ),
    }

    for m, c in _grid(config):
        bound = randomized_admission_bound(m, c, weighted=False)
        for workload_name, make in workloads.items():
            spec = RunSpec(
                factory=lambda rng, make=make, m=m, c=c: make(m, c, rng),
                algorithm="randomized",
                algorithm_params={"weighted": False},
                backend=config.backend,
                trials=trials,
                jobs=config.engine.effective_jobs,
                seed=stable_seed(config.seed, m, c, workload_name, "e4"),
                offline="ilp",
                ilp_time_limit=config.ilp_time_limit,
                randomized_bound=True,
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
    result.notes.append("ratio/bound staying bounded as m, c grow is Theorem 4's prediction.")
    return result


register(EXPERIMENT_ID, run)
