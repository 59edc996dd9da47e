"""Engine configuration shared by the CLI, experiments and the runtime.

:class:`EngineConfig` is the one object that travels from the command line
(``--backend numpy --jobs 4``) down through :class:`repro.experiments.base.
ExperimentConfig` into algorithm constructors (their ``backend=`` argument)
and into the backend and jobs fields of each
:class:`~repro.api.spec.RunSpec`.  It is a frozen, picklable dataclass so it
can cross process boundaries unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["EngineConfig", "DEFAULT_BACKEND", "resolve_jobs"]

#: The reference backend: scalar pure-Python, bit-for-bit the paper's pseudocode.
DEFAULT_BACKEND = "python"


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0``/negative mean "all cores"."""
    if jobs is None or int(jobs) <= 0:
        return max(os.cpu_count() or 1, 1)
    return int(jobs)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine.

    Attributes
    ----------
    backend:
        Weight-mechanism backend key resolved through
        :data:`repro.engine.registry.WEIGHT_BACKENDS` (``"python"`` or
        ``"numpy"``).
    jobs:
        Worker count for the parallel trial executor; ``1`` runs serially,
        ``0`` (or any non-positive value) means one worker per CPU core.
    vectorized:
        Route compiled contiguous arrival ranges through the whole-trace
        executor (:mod:`repro.engine.vectorized`), which hands runs of
        arrivals to the weight backend's block kernel: it registers the
        path entries that provably cannot overflow their edge in bulk and
        steps only the rest.  ``False`` is the per-arrival escape hatch.
        Only applies to compiled runs; never changes a reported number.
    """

    backend: str = DEFAULT_BACKEND
    jobs: int = 1
    vectorized: bool = True

    @property
    def effective_jobs(self) -> int:
        """The resolved worker count (non-positive ``jobs`` -> CPU count)."""
        return resolve_jobs(self.jobs)

    @classmethod
    def resolve(cls, value: Union["EngineConfig", str, None]) -> "EngineConfig":
        """Coerce ``None`` / a backend name / an existing config into a config."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(backend=value)
        raise TypeError(f"cannot build an EngineConfig from {value!r}")
