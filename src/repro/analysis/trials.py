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
from repro.core.protocols import run_admission, run_setcover
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
    instance: AdmissionInstance, algorithm, spec: "RunSpec"
) -> CompetitiveRecord:
    """Evaluate a fractional-style algorithm (no integral ``result()``).

    The Section-2 fractional algorithm exposes ``process_sequence`` /
    ``fractional_cost`` instead of the integral
    :class:`~repro.core.protocols.AdmissionResult` protocol; its natural
    comparator is the *fractional* optimum (the LP), exactly as in E1, so the
    spec's ``offline`` knob is ignored here and the record says ``lp``.
    """
    start = time.perf_counter()
    if spec.mode == "streaming":
        _stream_through_session(instance, algorithm, vectorized=spec.vectorized)
    elif spec.mode == "compiled" and hasattr(algorithm, "process_compiled_range"):
        compiled = compile_instance(instance)
        algorithm.process_compiled_range(
            compiled, 0, compiled.num_requests, vectorized=spec.vectorized
        )
    else:
        # Fractional-style algorithms without a range path (the doubling
        # wrapper, externally-built objects) keep the sequence entry point.
        algorithm.process_sequence(
            compile_instance(instance) if spec.mode == "compiled" else instance.requests
        )
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


def _evaluate_sharded_trial(instance: AdmissionInstance, trial: _Trial) -> CompetitiveRecord:
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

    spec = trial.spec
    # The fractional mechanism is deterministic; the session seed is provenance
    # only, but derive it from the trial's seed pair so it stays reproducible.
    seed = int(as_generator(trial.algo_seed).integers(2**31 - 1))

    start = time.perf_counter()
    with ProcessShardPool(
        instance.capacities,
        spec.shards,
        spec.algorithm,
        backend=spec.backend,
        seed=seed,
        algorithm_kwargs=spec.algorithm_param_dict(),
        retain_log=False,
        vectorized=spec.vectorized,
        name=instance.name,
        start_method=None if spec.workers > 1 else INLINE,
    ) as pool:
        pool.submit_stream(iter(instance.requests))
        shard_lines = list(pool.summary()["shards"].values())
    online_seconds = time.perf_counter() - start

    missing = [line["name"] for line in shard_lines if "fractional_cost" not in line]
    if missing:
        raise TypeError(
            f"sharded trials aggregate fractional costs, but shards {missing} report "
            f"none; algorithm {spec.algorithm!r} is not fractional-style"
        )
    augmentations = [line.get("augmentations") for line in shard_lines]
    return evaluate_fractional_run(
        instance,
        float(sum(line["fractional_cost"] for line in shard_lines)),
        algorithm=spec.algorithm,
        extra={
            "num_augmentations": (
                None if any(a is None for a in augmentations) else int(sum(augmentations))
            ),
            "online_seconds": online_seconds,
            "shards": spec.shards,
            "workers": spec.workers,
        },
    )


def _run_trial(trial: _Trial) -> CompetitiveRecord:
    """Execute one trial (worker function; module-level so it can pickle)."""
    spec = trial.spec
    instance = trial.instance_factory(as_generator(trial.instance_seed))
    if spec.shards > 1:
        # Sharded streaming builds its sessions per shard from the algorithm
        # registry key; the single-object algorithm factory is bypassed.
        return _evaluate_sharded_trial(instance, trial)
    algorithm = trial.algorithm_factory(instance, as_generator(trial.algo_seed))
    if spec.problem == "admission" and not hasattr(algorithm, "result"):
        # Fractional-style algorithms never produce an integral result; they
        # are compared against the LP optimum instead.
        record = _evaluate_fractional_trial(instance, algorithm, spec)
    elif spec.problem == "admission":
        start = time.perf_counter()
        if spec.mode == "streaming":
            _stream_through_session(instance, algorithm, vectorized=spec.vectorized)
            result = algorithm.result()
        else:
            compiled = (
                compile_instance(instance)
                if spec.mode == "compiled" and hasattr(algorithm, "process_indexed")
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
    else:
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
