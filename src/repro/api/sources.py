"""Picklable workload-source and algorithm factories used by the Runner.

Everything that crosses the trial-executor boundary must be a module-level
picklable callable so trials can fan out over *processes*.  The Runner
compiles every spec's source and registry-key algorithm into these
dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from repro.engine.config import EngineConfig
from repro.scenarios.registry import Scenario
from repro.utils.rng import as_generator

__all__ = [
    "ScenarioSource",
    "FixedInstanceSource",
    "RegistryAlgorithmFactory",
    "FixedSeedAlgorithmFactory",
]


@dataclass(frozen=True)
class ScenarioSource:
    """Picklable ``rng -> instance`` factory for one scenario.

    Carries the :class:`~repro.scenarios.registry.Scenario` object itself
    (not just its key), so process-pool workers need no registry state.
    """

    scenario: Scenario
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self, rng: np.random.Generator):
        return self.scenario.build(random_state=rng, **dict(self.overrides))


@dataclass(frozen=True)
class FixedInstanceSource:
    """Picklable factory that returns one pre-built instance, ignoring the rng.

    What a :class:`~repro.api.spec.RunSpec` with an ``instance=`` source
    compiles to: every trial replays the same workload (trial-to-trial
    variation, if any, comes from the algorithm's own seed stream).
    """

    instance: Any

    def __call__(self, rng: np.random.Generator):
        return self.instance


@dataclass(frozen=True)
class RegistryAlgorithmFactory:
    """Picklable ``(instance, rng) -> algorithm`` factory for one registry key.

    ``config`` travels as the backend spec, of which the algorithms read
    only the backend name; ``kwargs`` are the extra builder arguments
    (``weighted=True``, ``eps=0.2``, ...).  ``problem`` selects the
    admission or set-cover registry.
    """

    key: str
    config: EngineConfig
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    problem: str = "admission"

    def __call__(self, instance, rng: np.random.Generator):
        from repro.engine.runtime import make_admission_algorithm, make_setcover_algorithm

        make = make_admission_algorithm if self.problem == "admission" else make_setcover_algorithm
        return make(
            self.key, instance, random_state=rng, backend=self.config, **dict(self.kwargs)
        )


@dataclass(frozen=True)
class FixedSeedAlgorithmFactory:
    """Registry factory that pins the algorithm rng to one explicit seed.

    The trial executor hands every trial an independent algorithm seed; a few
    experiment designs (E8's shared-instance comparisons, E9's oracle-vs-
    doubling columns) instead want the *same* algorithm stream on every trial
    so all randomness comes from the workload.  This factory ignores the
    executor-provided rng and derives its own from ``seed``.
    """

    key: str
    config: EngineConfig
    seed: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    problem: str = "admission"

    def __call__(self, instance, rng: np.random.Generator):
        return RegistryAlgorithmFactory(self.key, self.config, self.kwargs, self.problem)(
            instance, as_generator(self.seed)
        )
