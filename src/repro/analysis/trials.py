"""Multi-seed trial runner with parallel execution.

Randomized algorithms (and randomized workloads) need several independent runs
before a competitive ratio means anything.  :func:`run_admission_trials` /
:func:`run_setcover_trials` run ``(workload seed, algorithm seed)`` pairs and
aggregate the resulting :class:`~repro.analysis.competitive.CompetitiveRecord`
objects into a :class:`TrialSummary`.

Every trial's seed pair is derived from the master seed *before* dispatch
(:func:`repro.engine.executor.derive_seed_pairs`, which matches the historical
``spawn_generators`` derivation exactly), so the summary is bit-identical
whether trials run serially (``jobs=1``), on a thread pool, or — when the
factories are picklable module-level callables — across processes.

Since the unified run-spec API (:mod:`repro.api`), :func:`execute_trial_suite`
is the engine room every execution path shares, and the public
``run_admission_trials`` / ``run_setcover_trials`` wrappers are deprecation
shims: they behave exactly as before but ask callers to build a
:class:`~repro.api.spec.RunSpec` instead.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.analysis.competitive import (
    CompetitiveRecord,
    evaluate_admission_run,
    evaluate_setcover_run,
)
from repro.analysis.stats import SummaryStats, summarize
from repro.core.bounds import fractional_admission_bound
from repro.core.protocols import run_admission, run_setcover
from repro.engine.executor import derive_seed_pairs, execute
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_instance
from repro.instances.setcover import SetCoverInstance
from repro.offline import solve_admission_lp_cached
from repro.utils.mathx import safe_ratio
from repro.utils.rng import as_generator

__all__ = [
    "TrialSummary",
    "execute_trial_suite",
    "run_admission_trials",
    "run_setcover_trials",
]


@dataclass
class TrialSummary:
    """Aggregate of several :class:`CompetitiveRecord` objects for one configuration."""

    label: str
    records: List[CompetitiveRecord] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        """Number of runs aggregated."""
        return len(self.records)

    def ratios(self) -> List[float]:
        """Measured competitive ratios, one per trial."""
        return [r.ratio for r in self.records]

    def ratio_stats(self) -> SummaryStats:
        """Summary statistics of the measured ratios."""
        return summarize(self.ratios())

    def normalized_stats(self) -> SummaryStats:
        """Summary statistics of ratio / theoretical bound."""
        return summarize(r.normalized_ratio for r in self.records if r.normalized_ratio is not None)

    def online_cost_stats(self) -> SummaryStats:
        """Summary statistics of the online costs."""
        return summarize(r.online_cost for r in self.records)

    def offline_cost_stats(self) -> SummaryStats:
        """Summary statistics of the offline comparator costs."""
        return summarize(r.offline_cost for r in self.records)

    def all_feasible(self) -> bool:
        """True if every trial produced a feasible online solution."""
        return all(r.feasible for r in self.records)

    def max_ratio(self) -> float:
        """Worst measured ratio across trials."""
        ratios = self.ratios()
        return max(ratios) if ratios else float("nan")

    def row(self) -> Dict[str, Any]:
        """Flat dict for report tables."""
        ratio = self.ratio_stats()
        normalized = self.normalized_stats()
        return {
            "label": self.label,
            "trials": self.num_trials,
            "ratio_mean": ratio.mean,
            "ratio_max": ratio.maximum,
            "ratio/bound_mean": normalized.mean,
            "online_mean": self.online_cost_stats().mean,
            "offline_mean": self.offline_cost_stats().mean,
            "feasible": self.all_feasible(),
        }


@dataclass
class _TrialSpec:
    """One self-contained trial: factories plus pre-derived seeds.

    The spec is what crosses the executor boundary, so it carries everything a
    worker needs and nothing it must share: the instance and algorithm
    factories, the two seeds (picklable ``SeedSequence`` children or ints),
    and the offline-evaluation knobs.
    """

    kind: str  # "admission" | "setcover"
    instance_factory: Callable
    algorithm_factory: Callable
    instance_seed: Any
    algo_seed: Any
    offline: str
    randomized_bound: bool
    bicriteria_bound: bool
    ilp_time_limit: Optional[float]
    compile_instances: bool = True
    streaming: bool = False
    #: Route compiled runs through the whole-trace executor (never changes a
    #: number; ``False`` is the per-arrival escape hatch).
    vectorized: bool = True
    #: Optional ``(instance, algorithm) -> mapping`` measurement hook, run in
    #: the worker right after the online run; merged into the record's extras.
    probe: Optional[Callable[[Any, Any], Mapping[str, Any]]] = None
    #: Streaming scale-out config (shards/workers + the algorithm key and
    #: backend knobs needed to build per-shard sessions).  When set, the trial
    #: runs through a :class:`~repro.engine.shards.ProcessShardPool` instead
    #: of a single algorithm object; the ``algorithm_factory`` is bypassed.
    sharding: Optional[Dict[str, Any]] = None


def _stream_through_session(
    instance: AdmissionInstance, algorithm, *, vectorized: bool = True
) -> None:
    """Feed an instance through a :class:`StreamingSession` micro-batch loop.

    Decisions are identical to the batch pipelines (same per-arrival float
    operations); this path exists so sweeps can exercise the serving-layer
    code end to end.
    """
    from repro.engine.streaming import StreamingSession

    session = StreamingSession(
        instance.capacities, algorithm=algorithm, vectorized=vectorized, name=instance.name
    )
    session.submit_stream(iter(instance.requests))


def _evaluate_fractional_trial(
    instance: AdmissionInstance,
    algorithm,
    *,
    compile_instances: bool,
    streaming: bool = False,
    vectorized: bool = True,
) -> CompetitiveRecord:
    """Evaluate a fractional-style algorithm (no integral ``result()``).

    The Section-2 fractional algorithm exposes ``process_sequence`` /
    ``fractional_cost`` instead of the integral
    :class:`~repro.core.protocols.AdmissionResult` protocol; its natural
    comparator is the *fractional* optimum (the LP), exactly as in E1, so the
    ``offline`` knob is ignored here and the record says ``lp``.
    """
    start = time.perf_counter()
    if streaming:
        _stream_through_session(instance, algorithm, vectorized=vectorized)
    elif compile_instances and hasattr(algorithm, "process_compiled_range"):
        compiled = compile_instance(instance)
        algorithm.process_compiled_range(
            compiled, 0, compiled.num_requests, vectorized=vectorized
        )
    else:
        # Fractional-style algorithms without a range path (the doubling
        # wrapper, externally-built objects) keep the sequence entry point.
        algorithm.process_sequence(
            compile_instance(instance) if compile_instances else instance.requests
        )
    online_seconds = time.perf_counter() - start
    # Cached: the oracle-alpha factories and invariant probes may have solved
    # (or may later solve) the same instance's LP in this worker.
    opt = solve_admission_lp_cached(instance)
    online_cost = algorithm.fractional_cost()
    ratio = safe_ratio(online_cost, opt.cost)
    bound = fractional_admission_bound(
        instance.num_edges, max(instance.max_capacity, 1), weighted=not instance.is_unit_cost()
    )
    extra: Dict[str, Any] = {
        "num_augmentations": getattr(algorithm, "num_augmentations", None),
        "online_seconds": online_seconds,
    }
    # Fractional-mechanism parameters the bound expressions need (Lemma 1 /
    # Theorem 2 consumers read these off the record instead of the live object).
    for attr in ("g", "c", "alpha"):
        if hasattr(algorithm, attr):
            extra[attr] = getattr(algorithm, attr)
    return CompetitiveRecord(
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        instance_name=instance.name,
        online_cost=online_cost,
        offline_cost=opt.cost,
        offline_kind=f"lp:{opt.status}",
        ratio=ratio,
        bound=bound,
        normalized_ratio=bound.normalized(ratio),
        feasible=True,
        extra=extra,
    )


def _evaluate_sharded_trial(instance: AdmissionInstance, spec: _TrialSpec) -> CompetitiveRecord:
    """Evaluate one trial through the sharded streaming layer.

    Builds a :class:`~repro.engine.shards.ProcessShardPool` over the
    instance's capacities (shards in-process when ``workers == 1``, else one
    worker process per shard), streams the arrivals through it, and
    aggregates the per-shard fractional costs.  Shard decisions do not
    depend on where a shard runs, so the reported ratio is independent of
    worker count.  The comparator is the *global* LP optimum, as in
    :func:`_evaluate_fractional_trial`.
    """
    from repro.engine.shards import INLINE, ProcessShardPool

    sharding = spec.sharding or {}
    algorithm_key = sharding["algorithm"]
    workers = int(sharding.get("workers", 1))
    shards = int(sharding.get("shards", 1))
    # The fractional mechanism is deterministic; the session seed is provenance
    # only, but derive it from the trial's seed pair so it stays reproducible.
    seed = int(as_generator(spec.algo_seed).integers(2**31 - 1))

    start = time.perf_counter()
    with ProcessShardPool(
        instance.capacities,
        shards,
        algorithm_key,
        backend=sharding.get("backend"),
        record=sharding.get("record"),
        seed=seed,
        algorithm_kwargs=dict(sharding.get("algorithm_kwargs") or {}),
        retain_log=False,
        vectorized=bool(sharding.get("vectorized", True)),
        name=instance.name,
        start_method=None if workers > 1 else INLINE,
    ) as pool:
        pool.submit_stream(iter(instance.requests))
        shard_lines = list(pool.summary()["shards"].values())
    online_seconds = time.perf_counter() - start

    missing = [line["name"] for line in shard_lines if "fractional_cost" not in line]
    if missing:
        raise TypeError(
            f"sharded trials aggregate fractional costs, but shards {missing} report "
            f"none; algorithm {algorithm_key!r} is not fractional-style"
        )
    online_cost = float(sum(line["fractional_cost"] for line in shard_lines))
    augmentations = [line.get("augmentations") for line in shard_lines]
    opt = solve_admission_lp_cached(instance)
    ratio = safe_ratio(online_cost, opt.cost)
    bound = fractional_admission_bound(
        instance.num_edges, max(instance.max_capacity, 1), weighted=not instance.is_unit_cost()
    )
    return CompetitiveRecord(
        algorithm=algorithm_key,
        instance_name=instance.name,
        online_cost=online_cost,
        offline_cost=opt.cost,
        offline_kind=f"lp:{opt.status}",
        ratio=ratio,
        bound=bound,
        normalized_ratio=bound.normalized(ratio),
        feasible=True,
        extra={
            "num_augmentations": (
                None if any(a is None for a in augmentations) else int(sum(augmentations))
            ),
            "online_seconds": online_seconds,
            "shards": shards,
            "workers": workers,
        },
    )


def _run_trial(spec: _TrialSpec) -> CompetitiveRecord:
    """Execute one trial (worker function; module-level so it can pickle)."""
    instance = spec.instance_factory(as_generator(spec.instance_seed))
    if spec.sharding is not None:
        # Sharded streaming builds its sessions per shard from the algorithm
        # registry key; the single-object algorithm factory is bypassed.
        return _evaluate_sharded_trial(instance, spec)
    algorithm = spec.algorithm_factory(instance, as_generator(spec.algo_seed))
    if spec.kind == "admission":
        if not hasattr(algorithm, "result"):
            # Fractional-style algorithms never produce an integral result;
            # they are compared against the LP optimum instead.
            record = _evaluate_fractional_trial(
                instance,
                algorithm,
                compile_instances=spec.compile_instances,
                streaming=spec.streaming,
                vectorized=spec.vectorized,
            )
            return _apply_probe(spec, record, instance, algorithm)
        start = time.perf_counter()
        if spec.streaming:
            _stream_through_session(instance, algorithm, vectorized=spec.vectorized)
            result = algorithm.result()
        else:
            compiled = (
                compile_instance(instance)
                if spec.compile_instances and hasattr(algorithm, "process_indexed")
                else None
            )
            result = run_admission(
                algorithm, instance, compiled=compiled, vectorized=spec.vectorized
            )
        online_seconds = time.perf_counter() - start
        record = evaluate_admission_run(
            instance,
            result,
            offline=spec.offline,
            randomized_bound=spec.randomized_bound,
            ilp_time_limit=spec.ilp_time_limit,
        )
        record.extra.setdefault("online_seconds", online_seconds)
        return _apply_probe(spec, record, instance, algorithm)
    start = time.perf_counter()
    result = run_setcover(algorithm, instance)
    online_seconds = time.perf_counter() - start
    record = evaluate_setcover_run(
        instance,
        result,
        offline=spec.offline,
        bicriteria_bound=spec.bicriteria_bound,
        ilp_time_limit=spec.ilp_time_limit,
    )
    record.extra.setdefault("online_seconds", online_seconds)
    return _apply_probe(spec, record, instance, algorithm)


def _apply_probe(
    spec: _TrialSpec, record: CompetitiveRecord, instance: Any, algorithm: Any
) -> CompetitiveRecord:
    """Merge the spec's measurement probe (if any) into the record's extras.

    Probes run in the worker while the algorithm object is still alive, which
    is what lets experiment-style consumers extract invariant checks and
    internal counters without re-running anything.
    """
    if spec.probe is not None:
        record.extra.update(spec.probe(instance, algorithm))
    return record


def execute_trial_suite(
    kind: str,
    instance_factory: Callable,
    algorithm_factory: Callable,
    *,
    num_trials: int,
    random_state: Any,
    label: str,
    offline: str,
    randomized_bound: bool = True,
    bicriteria_bound: bool = False,
    ilp_time_limit: Optional[float] = 20.0,
    jobs: int = 1,
    compile_instances: bool = True,
    streaming: bool = False,
    vectorized: bool = True,
    probe: Optional[Callable[[Any, Any], Mapping[str, Any]]] = None,
    sharding: Optional[Dict[str, Any]] = None,
) -> TrialSummary:
    """Run a suite of independent trials and aggregate the records.

    This is the shared engine room below the run-spec facade
    (:class:`repro.api.Runner` dispatches every spec here); the deprecated
    ``run_admission_trials`` / ``run_setcover_trials`` wrappers delegate to it
    unchanged, so legacy and facade numbers are identical by construction.
    """
    specs = [
        _TrialSpec(
            kind=kind,
            instance_factory=instance_factory,
            algorithm_factory=algorithm_factory,
            instance_seed=instance_seed,
            algo_seed=algo_seed,
            offline=offline,
            randomized_bound=randomized_bound,
            bicriteria_bound=bicriteria_bound,
            ilp_time_limit=ilp_time_limit,
            compile_instances=compile_instances,
            streaming=streaming,
            vectorized=vectorized,
            probe=probe,
            sharding=None if sharding is None else dict(sharding),
        )
        for instance_seed, algo_seed in derive_seed_pairs(random_state, num_trials)
    ]
    records = execute(_run_trial, specs, jobs=jobs)
    return TrialSummary(label=label, records=list(records))


def run_admission_trials(
    instance_factory: Callable[[np.random.Generator], AdmissionInstance],
    algorithm_factory: Callable[[AdmissionInstance, np.random.Generator], Any],
    *,
    num_trials: int = 5,
    random_state: Any = 0,
    label: str = "trial",
    offline: str = "ilp",
    randomized_bound: bool = True,
    ilp_time_limit: Optional[float] = 30.0,
    jobs: int = 1,
    compile_instances: bool = True,
    streaming: bool = False,
) -> TrialSummary:
    """Run several independent admission-control trials.

    ``instance_factory(rng)`` builds a (possibly random) instance; the
    ``algorithm_factory(instance, rng)`` builds the online algorithm, seeded
    independently of the instance.  ``jobs > 1`` fans the trials out over the
    engine executor without changing any result.  ``compile_instances`` (the
    default) compiles each trial instance once and streams it through the
    algorithm's indexed fast path — also without changing any result.
    ``streaming`` routes each trial through a
    :class:`~repro.engine.streaming.StreamingSession` micro-batch loop (the
    serving-layer path) instead — once more without changing any result.

    .. deprecated::
        Build a :class:`repro.api.RunSpec` and use :class:`repro.api.Runner`
        instead; this wrapper delegates to the same machinery and will keep
        producing identical numbers, but new call sites should use the facade.
    """
    warnings.warn(
        "run_admission_trials() is deprecated; build a repro.api.RunSpec and use "
        "repro.api.Runner instead (numbers are identical)",
        DeprecationWarning,
        stacklevel=2,
    )
    return execute_trial_suite(
        "admission",
        instance_factory,
        algorithm_factory,
        num_trials=num_trials,
        random_state=random_state,
        label=label,
        offline=offline,
        randomized_bound=randomized_bound,
        bicriteria_bound=False,
        ilp_time_limit=ilp_time_limit,
        jobs=jobs,
        compile_instances=compile_instances,
        streaming=streaming,
    )


def run_setcover_trials(
    instance_factory: Callable[[np.random.Generator], SetCoverInstance],
    algorithm_factory: Callable[[SetCoverInstance, np.random.Generator], Any],
    *,
    num_trials: int = 5,
    random_state: Any = 0,
    label: str = "trial",
    offline: str = "ilp",
    bicriteria_bound: bool = False,
    ilp_time_limit: Optional[float] = 30.0,
    jobs: int = 1,
) -> TrialSummary:
    """Run several independent set-cover trials (same structure as admission).

    .. deprecated::
        Build a :class:`repro.api.RunSpec` (``problem="setcover"``) and use
        :class:`repro.api.Runner` instead.
    """
    warnings.warn(
        "run_setcover_trials() is deprecated; build a repro.api.RunSpec "
        "(problem='setcover') and use repro.api.Runner instead (numbers are identical)",
        DeprecationWarning,
        stacklevel=2,
    )
    return execute_trial_suite(
        "setcover",
        instance_factory,
        algorithm_factory,
        num_trials=num_trials,
        random_state=random_state,
        label=label,
        offline=offline,
        # The randomized_bound flag only applies to admission evaluation; keep
        # the unused value False so it never leaks a wrong default.
        randomized_bound=False,
        bicriteria_bound=bicriteria_bound,
        ilp_time_limit=ilp_time_limit,
        jobs=jobs,
    )
