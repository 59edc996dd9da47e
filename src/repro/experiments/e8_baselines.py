"""E8 — baseline comparison on adversarial workloads.

Section 1 motivates the paper in two steps: (i) benefit-maximising algorithms
can reject far more than necessary, and (ii) the simple deterministic
algorithms known before (Blum–Kalai–Kleinberg) pay polynomial factors where a
polylogarithmic one is achievable.  The experiment plays the paper's
algorithms and the baseline family on the adversarial workload suite and
reports one row per (workload, algorithm) with the measured ratio, so the
"who wins, by roughly what factor" shape can be read off directly.

Each (workload, algorithm) pair is one single-trial
:class:`~repro.api.spec.RunSpec` over the pre-built adversarial instance;
the algorithm rng is pinned per pair (exactly the legacy seeds), so the
numbers are unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.api import FixedSeedAlgorithmFactory, Runner, RunSpec
from repro.experiments.base import ExperimentConfig, ExperimentResult, register
from repro.utils.rng import as_generator, stable_seed
from repro.workloads import (
    benefit_objective_trap,
    cheap_then_expensive_adversary,
    long_vs_short_adversary,
    overloaded_edge_adversary,
    repeated_overload_adversary,
)

EXPERIMENT_ID = "E8"
TITLE = "Paper's algorithms vs baselines on adversarial workloads"
VALIDATES = "Section 1 motivation; comparison against BKK-style baselines"

#: Algorithm registry keys this experiment resolves through the engine
#: (display label -> (registry key, extra kwargs)).
ALGORITHM_TABLE = {
    "Doubling (paper)": ("doubling", {}),
    "Randomized (no alpha)": ("randomized", {}),
    "RejectWhenFull": ("reject-when-full", {}),
    "KeepExpensive": ("keep-expensive", {}),
    "GreedySwap": ("greedy-swap", {}),
    "ThresholdPreemption": ("threshold", {}),
    "ExponentialBenefit": ("exponential-benefit", {}),
}
USES_ADMISSION = tuple(key for key, _ in ALGORITHM_TABLE.values())
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _workloads(config: ExperimentConfig) -> Dict[str, Callable]:
    scale = 1 if config.quick else 3
    return {
        "cheap-then-expensive": lambda rng: cheap_then_expensive_adversary(
            num_edges=8 * scale, capacity=2, expensive_cost=50.0
        ),
        "long-vs-short": lambda rng: long_vs_short_adversary(num_edges=12 * scale, capacity=1),
        "benefit-trap": lambda rng: benefit_objective_trap(num_groups=6 * scale, group_size=4),
        "overloaded-edges": lambda rng: overloaded_edge_adversary(
            num_edges=16 * scale, capacity=2, num_hot_edges=3, random_state=rng
        ),
        "repeated-overload": lambda rng: repeated_overload_adversary(
            capacity=3, num_waves=4 * scale, random_state=rng
        ),
    }


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run every algorithm on every adversarial workload and tabulate the ratios."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    runner = Runner()

    for workload_name, make in _workloads(config).items():
        rng = as_generator(stable_seed(config.seed, workload_name, "e8"))
        # One instance serves every algorithm on this workload; compilation
        # is memoized on the instance, so one compile serves them all too.
        instance = make(rng)
        for algo_name, (key, extra) in ALGORITHM_TABLE.items():
            spec = RunSpec(
                instance=instance,
                algorithm=FixedSeedAlgorithmFactory(
                    key,
                    config.engine,
                    stable_seed(config.seed, workload_name, algo_name, "e8"),
                    tuple(sorted(extra.items())),
                ),
                backend=config.backend,
                trials=1,
                offline="ilp",
                ilp_time_limit=config.ilp_time_limit,
                label=f"{workload_name} x {algo_name}",
            )
            for row in runner.run(spec):
                result.rows.append(
                    {
                        "workload": workload_name,
                        "algorithm": algo_name,
                        "online": row.online_cost,
                        "offline": row.offline_cost,
                        "ratio": row.ratio,
                        "feasible": row.feasible,
                    }
                )
    result.notes.append(
        "Expected shape: the non-preemptive and benefit-maximising baselines blow up on "
        "cheap-then-expensive / long-vs-short / benefit-trap, while the paper's algorithms stay polylogarithmic."
    )
    return result


register(EXPERIMENT_ID, run)
