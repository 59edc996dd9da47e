"""The trial engine below the run-spec facade.

Randomized algorithms (and randomized workloads) need several independent runs
before a competitive ratio means anything.  :func:`run_trials` runs a
:class:`~repro.api.spec.RunSpec`'s ``(workload seed, algorithm seed)`` pairs
and returns one :class:`~repro.analysis.competitive.CompetitiveRecord` per
trial; :class:`~repro.api.runner.Runner` turns them into result rows.

Every trial's seed pair is derived from the spec's seed *before* dispatch
(:func:`repro.engine.executor.derive_seed_pairs`, which matches the historical
``spawn_generators`` derivation exactly), so the records are bit-identical
whether trials run serially (``jobs=1``), on a thread pool, or — when the
spec and its factories are picklable module-level objects — across processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro.analysis.competitive import (
    CompetitiveRecord,
    evaluate_admission_run,
    evaluate_fractional_run,
    evaluate_setcover_run,
)
from repro.core.protocols import run_setcover
from repro.engine.executor import derive_seed_pairs, execute
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_instance
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # the api package imports this module
    from repro.api.spec import RunSpec

__all__ = ["run_trials"]


@dataclass(frozen=True)
class _Trial:
    """One trial as it crosses the executor boundary: the spec, its two
    compiled factories and the trial's pre-derived seed pair."""

    spec: "RunSpec"
    instance_factory: Callable
    algorithm_factory: Callable
    instance_seed: Any
    algo_seed: Any


def _feed(instance: AdmissionInstance, algorithm, spec: "RunSpec") -> None:
    """Run every arrival of ``instance`` through ``algorithm`` as ``spec.mode`` says.

    ``batch`` calls ``process`` per request, ``compiled`` hands the compiled
    instance to ``process_compiled_range``, and ``streaming`` submits the
    arrivals in micro-batches: to a
    :class:`~repro.engine.streaming.StreamingSession` around the algorithm,
    or, for a sharded spec, to the algorithm itself, a
    :class:`~repro.engine.shards.ProcessShardPool`.  Decisions are the same
    in every mode.
    """
    if spec.mode == "streaming":
        if spec.shards == 1:
            from repro.engine.streaming import StreamingSession

            algorithm = StreamingSession(
                instance.capacities,
                algorithm=algorithm,
                vectorized=spec.vectorized,
                name=instance.name,
            )
        algorithm.submit_stream(iter(instance.requests))
    elif spec.mode == "compiled":
        compiled = compile_instance(instance)
        algorithm.process_compiled_range(
            compiled, 0, compiled.num_requests, vectorized=spec.vectorized
        )
    else:
        for request in instance.requests:
            algorithm.process(request)


def _evaluate_fractional_trial(
    instance: AdmissionInstance, algorithm, spec: "RunSpec"
) -> CompetitiveRecord:
    """Evaluate a fractional-style algorithm (no integral ``result()``).

    The Section-2 fractional algorithm exposes ``fractional_cost`` instead of
    the integral :class:`~repro.core.protocols.AdmissionResult` protocol; its
    natural comparator is the *fractional* optimum (the LP), exactly as in
    E1, so the spec's ``offline`` knob is ignored here and the record says
    ``lp``.  A shard pool reports the sum of its shards' costs.
    """
    start = time.perf_counter()
    _feed(instance, algorithm, spec)
    extra: Dict[str, Any] = {
        "num_augmentations": getattr(algorithm, "num_augmentations", None),
        "online_seconds": time.perf_counter() - start,
    }
    # Fractional-mechanism parameters the bound expressions need (Lemma 1 /
    # Theorem 2 consumers read these off the record instead of the live object).
    for attr in ("g", "c", "alpha"):
        if hasattr(algorithm, attr):
            extra[attr] = getattr(algorithm, attr)
    return evaluate_fractional_run(
        instance,
        algorithm.fractional_cost(),
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        extra=extra,
    )


def _shard_pool(instance: AdmissionInstance, trial: _Trial):
    """The :class:`~repro.engine.shards.ProcessShardPool` a sharded trial runs.

    Its shard sessions run in-process when ``workers == 1``, else one worker
    process per shard; a shard's decisions do not depend on where it runs.
    The sessions build from the registry key, which sees no instance, so
    the pool is handed the defaults the unsharded ``fractional`` build takes
    from the instance (unit costs run unweighted); ``RunSpec`` shards no
    other key.
    """
    from repro.core.fractional import FractionalAdmissionControl
    from repro.engine.shards import INLINE, ProcessShardPool

    spec = trial.spec
    kwargs = FractionalAdmissionControl.instance_kwargs(instance, spec.algorithm_param_dict())
    # The fractional mechanism is deterministic; the session seed is provenance
    # only, but derive it from the trial's seed pair so it stays reproducible.
    seed = int(as_generator(trial.algo_seed).integers(2**31 - 1))
    return ProcessShardPool(
        instance.capacities,
        spec.shards,
        spec.algorithm,
        backend=spec.backend,
        seed=seed,
        algorithm_kwargs=kwargs,
        retain_log=False,
        vectorized=spec.vectorized,
        name=spec.algorithm,
        start_method=None if spec.workers > 1 else INLINE,
    )


def _run_trial(trial: _Trial) -> CompetitiveRecord:
    """Execute one trial (worker function; module-level so it can pickle)."""
    spec = trial.spec
    instance = trial.instance_factory(as_generator(trial.instance_seed))
    if spec.shards > 1:
        # Sharded streaming builds its sessions per shard from the algorithm
        # registry key; the single-object algorithm factory is bypassed.
        with _shard_pool(instance, trial) as pool:
            record = _evaluate_fractional_trial(instance, pool, spec)
        record.extra.update(shards=spec.shards, workers=spec.workers)
        return record
    algorithm = trial.algorithm_factory(instance, as_generator(trial.algo_seed))
    if spec.problem == "admission" and not hasattr(algorithm, "result"):
        # Fractional-style algorithms never produce an integral result; they
        # are compared against the LP optimum instead.
        record = _evaluate_fractional_trial(instance, algorithm, spec)
    elif spec.problem == "admission":
        start = time.perf_counter()
        _feed(instance, algorithm, spec)
        result = algorithm.result()
        online_seconds = time.perf_counter() - start
        record = evaluate_admission_run(
            instance, result, offline=spec.offline, ilp_time_limit=spec.ilp_time_limit
        )
        record.extra.setdefault("online_seconds", online_seconds)
    else:
        start = time.perf_counter()
        result = run_setcover(algorithm, instance)
        online_seconds = time.perf_counter() - start
        record = evaluate_setcover_run(
            instance, result, offline=spec.offline, ilp_time_limit=spec.ilp_time_limit
        )
        record.extra.setdefault("online_seconds", online_seconds)
    # The probe runs in the worker while the algorithm object is still alive,
    # which is what lets experiments extract invariant checks and internal
    # counters without re-running anything.
    if spec.probe is not None:
        record.extra.update(spec.probe(instance, algorithm))
    return record


def run_trials(
    spec: "RunSpec", instance_factory: Callable, algorithm_factory: Callable
) -> List[CompetitiveRecord]:
    """Run ``spec.trials`` independent trials of ``spec``; one record per trial.

    ``instance_factory`` (``rng -> instance``) and ``algorithm_factory``
    (``(instance, rng) -> algorithm``) are the spec's source and algorithm as
    the :class:`~repro.api.runner.Runner` compiles them; trials fan out over
    ``spec.jobs`` workers without changing a number.
    """
    trials = [
        _Trial(spec, instance_factory, algorithm_factory, instance_seed, algo_seed)
        for instance_seed, algo_seed in derive_seed_pairs(spec.seed, spec.trials)
    ]
    return execute(_run_trial, trials, jobs=spec.jobs)
