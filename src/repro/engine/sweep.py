"""The scenario x algorithm matrix behind ``repro sweep``.

:func:`run_sweep_specs` compiles every (scenario, algorithm) cell into one
:class:`~repro.api.spec.RunSpec`, runs it with
:meth:`repro.api.runner.Runner.run_summary`, and gathers the per-cell
:class:`~repro.analysis.trials.TrialSummary` objects into a
:class:`SweepResult`, whose :meth:`~SweepResult.report` is what ``repro
sweep`` prints and whose :meth:`~SweepResult.save` writes ``--out``.  Code that
wants tidy rows instead writes the same matrix as a grid::

    from repro.api import RunSpec, Runner

    specs = RunSpec.grid(["bursty", "flash_crowd"], ["fractional", "randomized"],
                         backends=["numpy"], trials=3, seed=7)
    results = Runner().run(specs)
    print(results.comparison_table())

Cell seeds derive with :func:`repro.utils.rng.stable_seed` from
``(master seed, scenario key, algorithm key)`` — the derivation
:meth:`RunSpec.grid` uses too — so adding or removing a scenario never
perturbs the numbers of the others, and a single cell can be reproduced in
isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.trials import TrialSummary
from repro.api.sources import RegistryAlgorithmFactory
from repro.engine.config import EngineConfig
from repro.scenarios.registry import Scenario

__all__ = ["SweepResult", "run_sweep_specs"]


@dataclass
class SweepResult:
    """Aggregated outcome of one scenario x algorithm sweep."""

    summaries: Dict[Tuple[str, str], TrialSummary]
    scenarios: List[str]
    algorithms: List[str]
    backend: str
    seed: int
    num_trials: int
    offline: str

    def rows(self) -> List[Dict[str, Any]]:
        """One flat row per (scenario, algorithm) cell, in grid order."""
        out: List[Dict[str, Any]] = []
        for scenario in self.scenarios:
            for algorithm in self.algorithms:
                summary = self.summaries[(scenario, algorithm)]
                ratio = summary.ratio_stats()
                out.append(
                    {
                        "scenario": scenario,
                        "algorithm": algorithm,
                        "trials": summary.num_trials,
                        "ratio_mean": ratio.mean,
                        "ratio_max": ratio.maximum,
                        "online_mean": summary.online_cost_stats().mean,
                        "offline_mean": summary.offline_cost_stats().mean,
                        "feasible": summary.all_feasible(),
                    }
                )
        return out

    def table(self, float_format: str = ".3f") -> str:
        """The long-form table: one row per cell."""
        title = (
            f"Scenario sweep — backend={self.backend}, trials={self.num_trials}, "
            f"seed={self.seed}, offline={self.offline}"
        )
        return format_table(self.rows(), title=title, float_format=float_format)

    def comparison_table(self, float_format: str = ".3f") -> str:
        """The cross-scenario pivot: one row per scenario, one ratio column per algorithm."""
        rows = []
        for scenario in self.scenarios:
            row: Dict[str, Any] = {"scenario": scenario}
            for algorithm in self.algorithms:
                summary = self.summaries[(scenario, algorithm)]
                row[f"ratio[{algorithm}]"] = summary.ratio_stats().mean
            rows.append(row)
        return format_table(
            rows, title="Cross-scenario comparison (mean competitive ratio)",
            float_format=float_format,
        )

    def report(self) -> str:
        """Long table plus the cross-scenario pivot."""
        return self.table() + "\n\n" + self.comparison_table()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (what ``repro sweep --out`` writes)."""
        return {
            "schema": 1,
            "backend": self.backend,
            "seed": self.seed,
            "num_trials": self.num_trials,
            "offline": self.offline,
            "scenarios": list(self.scenarios),
            "algorithms": list(self.algorithms),
            "cells": [
                {**row, "ratios": self.summaries[(row["scenario"], row["algorithm"])].ratios()}
                for row in self.rows()
            ],
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_dict` as JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def run_sweep_specs(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str],
    *,
    config: EngineConfig,
    num_trials: int,
    seed: int,
    offline: str,
    ilp_time_limit: Optional[float],
    streaming: bool = False,
    overrides: Optional[Dict[str, Tuple[Tuple[str, Any], ...]]] = None,
) -> SweepResult:
    """Compile a sweep into run specs, execute them, and adapt the result.

    What the CLI's ``sweep`` subcommand and the sweep benchmark run.  Cell
    seeds, factories and the execution path are exactly those of
    :meth:`repro.api.spec.RunSpec.grid` + :class:`repro.api.runner.Runner`.
    ``overrides`` maps a scenario key to its ``(name, value)`` parameter
    pairs.
    """
    from repro.api import Runner, RunSpec

    from repro.engine.streaming import STREAMING_ALGORITHMS
    from repro.utils.rng import stable_seed

    if not scenarios:
        raise ValueError("need at least one scenario")
    if not algorithms:
        raise ValueError("need at least one algorithm")
    keys = [s.key for s in scenarios]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError(f"duplicate scenario keys in sweep: {dup}")
    dup = sorted({a for a in algorithms if list(algorithms).count(a) > 1})
    if dup:
        raise ValueError(f"duplicate algorithm keys in sweep: {dup}")
    overrides = overrides or {}
    mode = "streaming" if streaming else ("compiled" if config.compile else "batch")
    runner = Runner()
    summaries: Dict[Tuple[str, str], TrialSummary] = {}
    for scenario in scenarios:
        for algorithm in algorithms:
            # The facade's eager validation restricts mode="streaming" to the
            # streaming-capable registry keys; `repro sweep --streaming` also
            # streams baselines through the session's per-request fallback, by
            # handing such cells a pre-built (callable) factory, which the
            # spec accepts for externally-managed algorithms.
            spec_algorithm: Any = algorithm
            if streaming and algorithm not in STREAMING_ALGORITHMS:
                spec_algorithm = RegistryAlgorithmFactory(algorithm, config, (), "admission")
            spec = RunSpec(
                scenario=scenario,
                algorithm=spec_algorithm,
                backend=config.backend,
                mode=mode,
                seed=stable_seed(seed, scenario.key, algorithm, "sweep"),
                scenario_params=dict(overrides.get(scenario.key, ())),
                trials=num_trials,
                # The spec requires an explicit positive worker count; resolve
                # EngineConfig's "0 = all cores" convention before building it.
                jobs=config.effective_jobs,
                record=config.record,
                offline=offline,
                ilp_time_limit=ilp_time_limit,
                label=f"{scenario.key} x {algorithm}",
            )
            summaries[(scenario.key, algorithm)] = runner.run_summary(spec)
    return SweepResult(
        summaries=summaries,
        scenarios=[s.key for s in scenarios],
        algorithms=list(algorithms),
        backend=config.backend,
        seed=seed,
        num_trials=num_trials,
        offline=offline,
    )
