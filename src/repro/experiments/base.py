"""Experiment harness: shared configuration, result container and registry.

Every experiment module (``e1_fractional`` ... ``e10_scaling``) exposes::

    EXPERIMENT_ID, TITLE, VALIDATES
    run(config: ExperimentConfig | None = None) -> ExperimentResult

The benchmark suite calls ``run`` with ``quick=True`` settings and prints the
resulting table; ``repro run`` without ``--quick`` uses the default (fuller)
settings.  Keeping configuration in one dataclass makes the sweeps
reproducible (a single master seed) and lets the scaling experiment reuse the
other experiments' machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.engine.config import EngineConfig
from repro.engine.registry import EXPERIMENTS

__all__ = ["ExperimentConfig", "ExperimentResult", "register", "get_experiment", "all_experiments"]


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes
    ----------
    quick:
        Use the reduced parameter grid (what the benchmarks run) instead of
        the full grid ``repro run`` uses by default.
    seed:
        Master seed; every trial derives its own stream from it.
    num_trials:
        Independent repetitions per configuration point.
    ilp_time_limit:
        Time limit (seconds) handed to the exact offline solvers.
    backend:
        Weight-mechanism backend every experiment builds its algorithms with
        (``"python"`` or ``"numpy"``); resolved through
        :data:`repro.engine.registry.WEIGHT_BACKENDS`.
    jobs:
        Worker count for the parallel trial executor (``1`` = serial,
        ``0`` = one worker per core).
    """

    quick: bool = True
    seed: int = 20050718  # SPAA 2005 conference date — an arbitrary fixed seed.
    num_trials: int = 3
    ilp_time_limit: float = 20.0
    backend: str = "python"
    jobs: int = 1

    def scaled_trials(self, full: int) -> int:
        """Number of trials to run: ``num_trials`` when quick, ``full`` otherwise."""
        return self.num_trials if self.quick else full

    @property
    def engine(self) -> EngineConfig:
        """The engine view of this configuration (backend + jobs)."""
        return EngineConfig(backend=self.backend, jobs=self.jobs)


@dataclass
class ExperimentResult:
    """Uniform output of every experiment."""

    experiment_id: str
    title: str
    validates: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def table(self, columns: Optional[Sequence[str]] = None, float_format: str = ".3f") -> str:
        """Render the result rows as a plain-text table."""
        title = f"[{self.experiment_id}] {self.title} — validates {self.validates}"
        text = format_table(self.rows, columns, title=title, float_format=float_format)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def max_value(self, column: str) -> float:
        """Maximum of a numeric column over all rows (NaN if absent)."""
        values = [row[column] for row in self.rows if column in row]
        return max(values) if values else float("nan")

    def mean_value(self, column: str) -> float:
        """Mean of a numeric column over all rows (NaN if absent)."""
        values = [row[column] for row in self.rows if column in row]
        return sum(values) / len(values) if values else float("nan")


def register(experiment_id: str, runner: Callable[..., ExperimentResult]) -> None:
    """Register an experiment runner under its id (``"E1"`` ... ``"E10"``).

    Delegates to the engine's :data:`~repro.engine.registry.EXPERIMENTS`
    registry; re-registering an id replaces the previous runner (experiments
    are re-registered when their module reloads).
    """
    EXPERIMENTS.register(experiment_id, runner, overwrite=True)


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment runner (:class:`KeyError` if unknown)."""
    return EXPERIMENTS.get(experiment_id)


def all_experiments() -> Dict[str, Callable[..., ExperimentResult]]:
    """All registered experiments keyed by id."""
    return dict(EXPERIMENTS.items())
