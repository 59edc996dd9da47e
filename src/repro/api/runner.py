"""`Runner`: dispatch validated specs through the engine's execution paths.

The Runner owns no numerics of its own.  Every spec compiles its source and
algorithm into picklable factories (:mod:`repro.api.sources`) and goes, with
them, to :func:`repro.analysis.trials.run_trials`, the one trial engine, which
reads the spec's ``mode`` to pick the execution path:

==============  =====================================================
spec ``mode``   execution path
==============  =====================================================
``batch``       per-request ``process()`` loop
``compiled``    compiled-instance indexed fast path
``streaming``   :class:`~repro.engine.streaming.StreamingSession`
                micro-batches (the serving layer); with ``shards > 1``
                a :class:`~repro.engine.shards.ProcessShardPool`
==============  =====================================================

Decisions — and therefore every reported number — are identical across modes
and identical to a hand-driven ``run_admission`` / ``StreamingSession`` loop;
the equivalence is pinned by ``tests/test_api_equivalence.py`` at 1e-9 on
both backends.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.analysis.competitive import CompetitiveRecord
from repro.analysis.trials import run_trials
from repro.api.results import ResultRow, ResultSet
from repro.api.sources import FixedInstanceSource, RegistryAlgorithmFactory, ScenarioSource
from repro.api.spec import RunSpec
from repro.engine.config import EngineConfig

__all__ = ["Runner", "run"]


class Runner:
    """Execute :class:`~repro.api.spec.RunSpec` objects, one or many.

    The Runner is stateless: all configuration lives in the specs, so a
    single instance can serve every run in a process (and sub-specs fan out
    over the engine executor according to each spec's own ``jobs``).
    """

    def run(self, specs: Union[RunSpec, Iterable[RunSpec]]) -> ResultSet:
        """Run one spec or an iterable of specs; rows land in spec order."""
        if isinstance(specs, RunSpec):
            specs = [specs]
        results = ResultSet()
        for spec in specs:
            records = run_trials(
                spec, self._instance_factory(spec), self._algorithm_factory(spec)
            )
            results.extend(self._rows_for(spec, records))
        return results

    # -- spec compilation --------------------------------------------------------
    @staticmethod
    def _instance_factory(spec: RunSpec):
        scenario = spec.resolved_scenario
        if scenario is not None:
            return ScenarioSource(scenario, spec.scenario_param_pairs)
        if spec.instance is not None:
            return FixedInstanceSource(spec.instance)
        return spec.factory

    @staticmethod
    def _algorithm_factory(spec: RunSpec):
        if not isinstance(spec.algorithm, str):
            return spec.algorithm
        config = EngineConfig(
            backend=spec.backend,
            jobs=1,  # worker-side: trials already fanned out by run_trials
            vectorized=spec.vectorized,
        )
        return RegistryAlgorithmFactory(
            spec.algorithm, config, spec.algorithm_param_pairs, spec.problem
        )

    @staticmethod
    def _rows_for(spec: RunSpec, records: List[CompetitiveRecord]) -> List[ResultRow]:
        return [
            ResultRow(
                source=spec.source_key,
                algorithm=spec.algorithm_key,
                backend=spec.backend,
                mode=spec.mode,  # type: ignore[arg-type]  # set in __post_init__
                problem=spec.problem,
                trial=trial,
                label=spec.label,  # type: ignore[arg-type]  # set in __post_init__
                instance=record.instance_name,
                online_cost=record.online_cost,
                offline_cost=record.offline_cost,
                offline_kind=record.offline_kind,
                ratio=record.ratio,
                bound=record.bound.value if record.bound is not None else None,
                normalized_ratio=record.normalized_ratio,
                feasible=record.feasible,
                seed=spec.seed,
                extra=dict(record.extra),
                record=record,
            )
            for trial, record in enumerate(records)
        ]


def run(specs: Union[RunSpec, Iterable[RunSpec]]) -> ResultSet:
    """Module-level convenience: ``repro.api.run(spec)`` with a fresh Runner."""
    return Runner().run(specs)
