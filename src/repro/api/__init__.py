"""The unified run-spec API: one declarative front door for every execution path.

The same algorithm can run as batch trials, through the compiled fast path,
through a :class:`repro.engine.streaming.StreamingSession` (serving), or as a
scenario matrix.  This package is the one way to ask for any of them:

* :class:`~repro.api.spec.RunSpec` — a frozen, eagerly-validated description
  of one run: *what* to run (a scenario name, a recorded trace, an explicit
  instance, or a factory), *which* algorithm and backend, *how* to execute it
  (``batch`` / ``compiled`` / ``streaming``), and how many trials with which
  seed.  :meth:`~repro.api.spec.RunSpec.grid` expands the cartesian product
  of scenarios x algorithms x backends x modes into a list of specs with
  sweep-compatible per-cell seeds.
* :class:`~repro.api.runner.Runner` — dispatches every spec through the
  engine's machinery (the parallel trial executor, the compiled fast path,
  or a :class:`~repro.engine.streaming.StreamingSession`); the choice never
  changes a number.
* :class:`~repro.api.results.ResultSet` — one uniform tidy row schema for
  every execution path, with JSON/JSONL round-trip and aggregation /
  comparison helpers.

Quick start::

    from repro.api import RunSpec, Runner

    spec = RunSpec(scenario="bursty", algorithm="doubling",
                   backend="numpy", mode="compiled", trials=5, seed=7)
    results = Runner().run(spec)
    print(results.table())

    grid = RunSpec.grid(scenarios=["bursty", "flash_crowd"],
                        algorithms=["fractional", "randomized"],
                        trials=3, seed=7)
    print(Runner().run(grid).comparison_table())
"""

from repro.api.results import ResultRow, ResultSet
from repro.api.runner import Runner, run
from repro.api.sources import (
    FixedInstanceSource,
    FixedSeedAlgorithmFactory,
    RegistryAlgorithmFactory,
    ScenarioSource,
)
from repro.api.spec import EXECUTION_MODES, PROBLEMS, RunSpec, RunSpecError

__all__ = [
    "RunSpec",
    "RunSpecError",
    "Runner",
    "ResultRow",
    "ResultSet",
    "run",
    "EXECUTION_MODES",
    "PROBLEMS",
    "ScenarioSource",
    "FixedInstanceSource",
    "RegistryAlgorithmFactory",
    "FixedSeedAlgorithmFactory",
]
