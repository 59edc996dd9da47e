"""The scenario x algorithm matrix behind ``repro sweep``.

:func:`run_sweep_specs` expands the (scenario, algorithm) cells with
:meth:`repro.api.spec.RunSpec.grid`, runs them with
:meth:`repro.api.runner.Runner.run`, and keeps the trial rows in a
:class:`SweepResult`, whose :meth:`~SweepResult.report` is what ``repro
sweep`` prints and whose :meth:`~SweepResult.save` writes ``--out``.  Both
read :meth:`repro.api.results.ResultSet.aggregate`, with its ``source``
column named ``scenario``.  Code that wants the tidy rows directly runs
the same grid::

    from repro.api import RunSpec, Runner

    specs = RunSpec.grid(["bursty", "flash_crowd"], ["fractional", "randomized"],
                         backends=["numpy"], trials=3, seed=7)
    results = Runner().run(specs)
    print(results.comparison_table())

Cell seeds are the grid's, so adding or removing a scenario never perturbs
the numbers of the others, and a single cell can be reproduced in
isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.api.results import ResultSet
from repro.engine.config import EngineConfig
from repro.scenarios.registry import Scenario

__all__ = ["SweepResult", "run_sweep_specs"]


@dataclass
class SweepResult:
    """The trial rows of one scenario x algorithm sweep, plus its report header."""

    results: ResultSet
    scenarios: List[str]
    algorithms: List[str]
    backend: str
    seed: int
    num_trials: int
    offline: str

    def rows(self) -> List[Dict[str, Any]]:
        """One aggregate row per (scenario, algorithm) cell, in grid order."""
        return [{"scenario": row.pop("source"), **row} for row in self.results.aggregate()]

    def table(self, float_format: str = ".3f") -> str:
        """The long-form table: one row per cell."""
        title = (
            f"Scenario sweep — backend={self.backend}, trials={self.num_trials}, "
            f"seed={self.seed}, offline={self.offline}"
        )
        return format_table(self.rows(), title=title, float_format=float_format)

    def comparison_table(self, float_format: str = ".3f") -> str:
        """The cross-scenario pivot: one row per scenario, one ratio column per algorithm."""
        pivot: Dict[str, Dict[str, Any]] = {}
        for row in self.rows():
            cells = pivot.setdefault(row["scenario"], {"scenario": row["scenario"]})
            cells[f"ratio[{row['algorithm']}]"] = row["ratio_mean"]
        return format_table(
            list(pivot.values()),
            title="Cross-scenario comparison (mean competitive ratio)",
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
                {
                    **row,
                    "ratios": self.results.filter(
                        source=row["scenario"], algorithm=row["algorithm"]
                    ).ratios(),
                }
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
    """Expand a sweep with :meth:`RunSpec.grid`, run it, and collect its rows.

    What the CLI's ``sweep`` subcommand and the sweep benchmark run.
    ``overrides`` maps a scenario key to its ``(name, value)`` parameter
    pairs.  Empty and duplicate axes raise the grid's
    :class:`~repro.api.spec.RunSpecError`.
    """
    from repro.api import Runner, RunSpec

    specs = RunSpec.grid(
        scenarios,
        algorithms,
        backends=(config.backend,),
        modes=("streaming" if streaming else "compiled",),
        seed=seed,
        scenario_overrides={key: dict(pairs) for key, pairs in (overrides or {}).items()},
        trials=num_trials,
        # The spec requires an explicit positive worker count; resolve
        # EngineConfig's "0 = all cores" convention before building it.
        jobs=config.effective_jobs,
        offline=offline,
        ilp_time_limit=ilp_time_limit,
    )
    runner = Runner()
    return SweepResult(
        results=ResultSet(row for spec in specs for row in runner.run(spec)),
        scenarios=[s.key for s in scenarios],
        # Rows carry the registry's canonical lower-case key.
        algorithms=list(dict.fromkeys(spec.algorithm_key for spec in specs)),
        backend=config.backend,
        seed=seed,
        num_trials=num_trials,
        offline=offline,
    )
