"""`Runner`: dispatch validated specs through the engine's execution paths.

The Runner owns no numerics of its own.  Every spec compiles down to one call
of :func:`repro.analysis.trials.execute_trial_suite` — the same engine room
the legacy entry points used — with the spec's mode mapped onto the suite's
knobs:

==============  =====================================================
spec ``mode``   execution path
==============  =====================================================
``batch``       per-request ``process()`` loop
``compiled``    compiled-instance indexed fast path
``streaming``   :class:`~repro.engine.streaming.StreamingSession`
                micro-batches (the serving layer)
==============  =====================================================

Decisions — and therefore every reported number — are identical across modes
and identical to the legacy entry points; the equivalence is pinned by
``tests/test_api_equivalence.py`` at 1e-9 on both backends.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.analysis.trials import TrialSummary, execute_trial_suite
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
            results.extend(self._rows_for(spec, self.run_summary(spec)))
        return results

    def run_summary(self, spec: RunSpec) -> TrialSummary:
        """Run one spec and return the raw :class:`TrialSummary`.

        Exposed for adapters (the legacy sweep) that still speak the
        summary shape; :meth:`run` is the normal entry point.
        """
        return execute_trial_suite(
            spec.problem,
            self._instance_factory(spec),
            self._algorithm_factory(spec),
            num_trials=spec.trials,
            random_state=spec.seed,
            label=spec.label or f"{spec.source_key} x {spec.algorithm_key}",
            offline=spec.offline,
            randomized_bound=spec.randomized_bound,
            bicriteria_bound=spec.bicriteria_bound,
            ilp_time_limit=spec.ilp_time_limit,
            jobs=spec.jobs,
            compile_instances=spec.mode == "compiled",
            streaming=spec.mode == "streaming",
            vectorized=spec.vectorized,
            probe=spec.probe,
            sharding=self._sharding(spec),
        )

    @staticmethod
    def _sharding(spec: RunSpec):
        """The trial suite's scale-out config, or ``None`` for plain specs."""
        if spec.mode != "streaming" or (spec.shards == 1 and spec.workers == 1):
            return None
        return {
            "shards": spec.shards,
            "workers": spec.workers,
            "algorithm": spec.algorithm,
            "backend": spec.backend,
            "record": spec.record,
            "algorithm_kwargs": spec.algorithm_param_dict(),
            "vectorized": spec.vectorized,
        }

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
            jobs=1,  # worker-side: trials already fanned out by the suite
            compile=spec.mode != "batch",
            record=spec.record,
            vectorized=spec.vectorized,
        )
        return RegistryAlgorithmFactory(
            spec.algorithm, config, spec.algorithm_param_pairs, spec.problem
        )

    @staticmethod
    def _rows_for(spec: RunSpec, summary: TrialSummary) -> List[ResultRow]:
        rows: List[ResultRow] = []
        for trial, record in enumerate(summary.records):
            rows.append(
                ResultRow(
                    source=spec.source_key,
                    algorithm=spec.algorithm_key,
                    backend=spec.backend,
                    mode=spec.mode or "compiled",
                    problem=spec.problem,
                    trial=trial,
                    label=summary.label,
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
            )
        return rows


def run(specs: Union[RunSpec, Iterable[RunSpec]]) -> ResultSet:
    """Module-level convenience: ``repro.api.run(spec)`` with a fresh Runner."""
    return Runner().run(specs)
