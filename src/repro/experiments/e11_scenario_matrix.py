"""E11 — the scenario matrix: competitive ratios across generated traffic.

The theorems promise competitiveness against *every* adversary, but E1–E10
each probe one hand-picked construction.  E11 runs the paper's algorithms
over the scenario registry's serving-style families — bursty/MMPP arrivals,
Zipf cost mixes, diurnal curves, flash crowds, interleaved adversaries,
topology stress — next to a naive baseline, through
:meth:`repro.api.RunSpec.grid` and the :class:`~repro.api.Runner` (the same
cells, seeds and numbers ``repro sweep`` produces).  The quantity to watch
is the *spread*: the paper's algorithms should stay within a small factor of
the offline bound on every row, while the baseline's ratio varies wildly
with the traffic shape.
"""

from __future__ import annotations

from typing import Optional

from repro.api import Runner, RunSpec
from repro.experiments.base import ExperimentConfig, ExperimentResult, register

EXPERIMENT_ID = "E11"
TITLE = "Scenario matrix: algorithms x generated traffic families"
VALIDATES = "the competitive guarantees hold across serving-style scenarios"

#: Algorithm registry keys this experiment resolves through the engine.
USES_ADMISSION = ("fractional", "randomized", "doubling", "reject-when-full")
USES_SETCOVER = ()

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "VALIDATES"]


def _scenarios(config: ExperimentConfig):
    quick = ["bursty", "zipf_costs", "flash_crowd"]
    if config.quick:
        return quick
    return quick + ["diurnal", "adversarial_mix", "topology_stress"]


def _algorithms(config: ExperimentConfig):
    if config.quick:
        return ["fractional", "randomized", "reject-when-full"]
    return ["fractional", "randomized", "doubling", "reject-when-full"]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the scenario matrix and return one row per (scenario, algorithm)."""
    config = config or ExperimentConfig()
    result = ExperimentResult(EXPERIMENT_ID, TITLE, VALIDATES)
    specs = RunSpec.grid(
        _scenarios(config),
        _algorithms(config),
        backends=[config.backend],
        modes=["compiled"],
        seed=config.seed,
        trials=config.scaled_trials(5),
        jobs=config.engine.effective_jobs,
        offline="lp",
        ilp_time_limit=config.ilp_time_limit,
    )
    outcome = Runner().run(specs)
    result.rows = [
        {"scenario": row.pop("source"), **row}
        for row in outcome.aggregate(by=("source", "algorithm"))
    ]
    result.metadata["comparison"] = outcome.comparison_table(index="source")
    result.notes.append(
        "offline=lp is a lower bound on OPT, so ratios are conservative (upper bounds); "
        "the paper's algorithms should stay flat across rows while the baseline swings."
    )
    return result


register(EXPERIMENT_ID, run)
