"""`RunSpec`: a frozen, eagerly-validated description of one run.

A spec answers four questions as plain data:

* **What workload?**  Exactly one of ``scenario`` (a registry key or a
  :class:`~repro.scenarios.registry.Scenario` object), ``trace`` (a recorded
  JSONL trace path), ``instance`` (an explicit, already-built instance), or
  ``factory`` (an ``rng -> instance`` callable, the escape hatch the
  experiment harness uses for bespoke workload grids).
* **Which algorithm, on which backend?**  ``algorithm`` is a registry key
  (``"fractional"``, ``"doubling"``, ``"reject-when-full"``, ...) resolved
  through :data:`~repro.engine.registry.ADMISSION_ALGORITHMS` /
  :data:`~repro.engine.registry.SETCOVER_ALGORITHMS` depending on
  ``problem``; a callable ``(instance, rng) -> algorithm`` is accepted as an
  escape hatch.  ``backend`` resolves through
  :data:`~repro.engine.registry.WEIGHT_BACKENDS`.
* **How is it executed?**  ``mode`` is ``"batch"`` (per-request streaming),
  ``"compiled"`` (the array-native indexed fast path), or ``"streaming"``
  (micro-batches through a :class:`~repro.engine.streaming.StreamingSession`).
  Decisions are identical across modes by construction; the knob selects the
  execution machinery, not the semantics.
* **How many trials, with which seed?**  ``trials`` independent
  (workload seed, algorithm seed) pairs derive from ``seed`` exactly as the
  legacy trial runner derived them, and ``jobs`` fans trials out over the
  engine executor without changing any number.

Validation is eager and exhaustive: every registry key, mode, and count is
checked at construction time against the live registries, so a typo fails at
spec-build time with a message listing the known keys — not three layers deep
in a worker process.  All validation failures raise :class:`RunSpecError`.

:meth:`RunSpec.grid` expands scenarios x algorithms x backends x modes into a
list of specs whose per-cell seeds are derived with
:func:`repro.utils.rng.stable_seed` from ``(seed, source key, algorithm)``,
so adding a scenario never perturbs another's numbers.
:func:`~repro.engine.sweep.run_sweep_specs` (``repro sweep``) expands its
cells through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.sources import FixedSeedAlgorithmFactory, RegistryAlgorithmFactory
from repro.engine.config import DEFAULT_BACKEND
from repro.scenarios.registry import Scenario
from repro.utils.rng import stable_seed

__all__ = ["RunSpec", "RunSpecError", "EXECUTION_MODES", "PROBLEMS", "OFFLINE_COMPARATORS"]

#: The execution modes a spec may name.
EXECUTION_MODES: Tuple[str, ...] = ("batch", "compiled", "streaming")

#: The problem families a spec may name.
PROBLEMS: Tuple[str, ...] = ("admission", "setcover")

#: The offline comparators a spec may name.
OFFLINE_COMPARATORS: Tuple[str, ...] = ("lp", "ilp")


class RunSpecError(ValueError):
    """Raised when a :class:`RunSpec` fails eager validation."""


def _as_param_tuple(params: Optional[Mapping[str, Any]], what: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a parameter mapping into a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    if not isinstance(params, Mapping):
        raise RunSpecError(f"{what} must be a mapping of parameter names to values, got {params!r}")
    return tuple(sorted(params.items()))


def _known(keys: Sequence[str]) -> str:
    return ", ".join(keys) if keys else "<none registered>"


@dataclass(frozen=True)
class RunSpec:
    """One declarative run: source x algorithm x backend x mode x trials/seed.

    Parameters
    ----------
    algorithm:
        Algorithm registry key (validated against the problem's registry), or
        a callable ``(instance, rng) -> algorithm`` escape hatch (give it a
        ``label`` so reports stay readable).
    scenario / trace / instance / factory:
        Exactly one source.  ``scenario`` is a scenario-registry key or a
        :class:`~repro.scenarios.registry.Scenario`; ``trace`` is a recorded
        JSONL trace path (wrapped as a ``trace:<stem>`` scenario); ``instance``
        is an explicit instance object; ``factory`` is an ``rng -> instance``
        callable.
    scenario_params:
        Parameter overrides applied when building the scenario (requires a
        ``scenario`` or ``trace`` source).
    algorithm_params:
        Extra keyword arguments for the algorithm builder.
    problem:
        ``"admission"`` (default) or ``"setcover"``.
    mode:
        ``"batch"``, ``"compiled"`` or ``"streaming"``; defaults to
        ``"compiled"`` for admission and ``"batch"`` for set cover (which has
        no compiled or streaming path).
    backend:
        Weight-backend registry key (``"python"``, ``"numpy"``).
    trials / jobs / seed:
        Positive trial and worker counts and the integer master seed.  Seeds
        derive per trial before dispatch, so ``jobs`` never changes a number.
    vectorized:
        Route compiled runs through the whole-trace executor
        (:mod:`repro.engine.vectorized`) — the ``mode="compiled"`` default
        fast path.  ``RunSpec(vectorized=False)`` is the per-arrival escape
        hatch; it never changes a reported number.
    shards / workers:
        Streaming scale-out (``mode="streaming"`` only).  ``shards`` > 1
        partitions the edges by namespace across a
        :class:`~repro.engine.shards.ProcessShardPool`, whose sessions run
        in-process; ``workers`` > 1 runs the same sessions in one worker
        process per shard.  The shard sessions build from a
        :data:`~repro.engine.streaming.STREAMING_ALGORITHMS` key.  Decisions
        do not depend on where a shard runs, so reported numbers are
        independent of ``workers``.  ``shards`` defaults to ``workers`` when
        only ``workers`` is given.
    offline:
        Offline comparator for integral algorithms: ``"lp"`` (fast lower
        bound, the default) or ``"ilp"`` (exact OPT).  Fractional algorithms
        always compare against the LP.
    ilp_time_limit:
        Time limit (s) for exact offline solves when ``offline="ilp"``.
    probe:
        Optional ``(instance, algorithm) -> mapping`` measurement hook run
        right after the online run in the worker; its result is merged into
        the row's ``extra``.  Must be a module-level (picklable) callable for
        process-pool execution.  This is the seam the experiment harness uses
        to extract invariant checks and algorithm-internal counters without
        abandoning the facade.
    label:
        Display label for reports; defaults to ``"<source> x <algorithm>"``.
    """

    algorithm: Union[str, Callable[..., Any]]
    scenario: Optional[Union[str, Scenario]] = None
    trace: Optional[Union[str, Path]] = None
    instance: Optional[Any] = None
    factory: Optional[Callable[..., Any]] = None
    scenario_params: Optional[Mapping[str, Any]] = None
    algorithm_params: Optional[Mapping[str, Any]] = None
    problem: str = "admission"
    mode: Optional[str] = None
    backend: str = DEFAULT_BACKEND
    trials: int = 1
    jobs: int = 1
    seed: int = 0
    vectorized: bool = True
    shards: int = 1
    workers: int = 1
    offline: str = "lp"
    ilp_time_limit: Optional[float] = 20.0
    probe: Optional[Callable[..., Mapping[str, Any]]] = None
    label: Optional[str] = None

    # -- construction-time validation -------------------------------------------------
    def __post_init__(self) -> None:
        self._validate_problem_and_mode()
        self._validate_source()
        self._validate_algorithm()
        self._validate_backend()
        self._validate_counts()
        self._validate_sharding()
        # Normalise the parameter mappings into hashable tuples so specs stay
        # frozen, comparable, and picklable.
        object.__setattr__(
            self, "scenario_params", _as_param_tuple(self.scenario_params, "scenario_params")
        )
        object.__setattr__(
            self, "algorithm_params", _as_param_tuple(self.algorithm_params, "algorithm_params")
        )
        if self.label is None:
            object.__setattr__(self, "label", f"{self.source_key} x {self.algorithm_key}")

    def _validate_problem_and_mode(self) -> None:
        if self.problem not in PROBLEMS:
            raise RunSpecError(
                f"problem must be one of {', '.join(repr(p) for p in PROBLEMS)}; "
                f"got {self.problem!r}"
            )
        if self.mode is None:
            default_mode = "compiled" if self.problem == "admission" else "batch"
            object.__setattr__(self, "mode", default_mode)
        if self.mode not in EXECUTION_MODES:
            raise RunSpecError(
                f"mode must be one of {', '.join(repr(m) for m in EXECUTION_MODES)}; "
                f"got {self.mode!r}"
            )
        if self.problem == "setcover" and self.mode != "batch":
            raise RunSpecError(
                f"set-cover specs support only mode='batch' (there is no compiled or "
                f"streaming path for set cover); got mode={self.mode!r}"
            )
        if self.offline not in OFFLINE_COMPARATORS:
            raise RunSpecError(
                f"offline must be one of {', '.join(repr(o) for o in OFFLINE_COMPARATORS)}; "
                f"got {self.offline!r}"
            )

    def _validate_source(self) -> None:
        provided = [
            name
            for name, value in (
                ("scenario", self.scenario),
                ("trace", self.trace),
                ("instance", self.instance),
                ("factory", self.factory),
            )
            if value is not None
        ]
        if len(provided) != 1:
            got = ", ".join(provided) if provided else "none"
            raise RunSpecError(
                f"RunSpec needs exactly one source — pass scenario=, trace=, instance=, "
                f"or factory= (got {got})"
            )
        if self.scenario_params and provided[0] in ("instance", "factory"):
            raise RunSpecError(
                f"scenario_params requires a scenario= or trace= source; "
                f"got a {provided[0]}= source"
            )
        if self.scenario is not None and not isinstance(self.scenario, Scenario):
            from repro.scenarios.registry import SCENARIOS, ensure_builtin_scenarios

            ensure_builtin_scenarios()
            # Unknown keys raise the registry's UnknownKeyError, whose message
            # lists every known scenario — the library-wide lookup contract.
            object.__setattr__(self, "scenario", SCENARIOS.get(self.scenario))
        if self.trace is not None:
            path = Path(self.trace)
            if not path.exists():
                raise RunSpecError(f"trace file not found: {path}")
            from repro.scenarios.trace import scenario_from_trace

            object.__setattr__(self, "scenario", scenario_from_trace(path, register=False))
            object.__setattr__(self, "trace", str(path))
        if self.factory is not None and not callable(self.factory):
            raise RunSpecError(f"factory must be callable (rng -> instance), got {self.factory!r}")

    def _validate_algorithm(self) -> None:
        algorithm = self.algorithm
        if not isinstance(algorithm, str):
            if callable(algorithm):
                return
            raise RunSpecError(
                f"algorithm must be a registry key or a callable, got {algorithm!r}"
            )
        if not algorithm.strip():
            raise RunSpecError(
                f"algorithm must be a registry key or a callable, got {algorithm!r}"
            )
        from repro.engine.registry import ADMISSION_ALGORITHMS, SETCOVER_ALGORITHMS
        from repro.engine.runtime import ensure_builtin_registrations

        ensure_builtin_registrations()
        registry = ADMISSION_ALGORITHMS if self.problem == "admission" else SETCOVER_ALGORITHMS
        registry.get(algorithm)  # unknown keys raise UnknownKeyError (lists known keys)
        object.__setattr__(self, "algorithm", algorithm.strip().lower())

    def _validate_backend(self) -> None:
        from repro.engine.registry import WEIGHT_BACKENDS
        from repro.engine.runtime import ensure_builtin_registrations

        ensure_builtin_registrations()
        WEIGHT_BACKENDS.get(self.backend)  # unknown keys raise UnknownKeyError
        object.__setattr__(self, "backend", self.backend.strip().lower())

    def _validate_counts(self) -> None:
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise RunSpecError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool) or self.jobs < 1:
            raise RunSpecError(
                f"jobs must be a positive integer, got {self.jobs!r} "
                f"(resolve 'all cores' with repro.engine.config.resolve_jobs before building the spec)"
            )
        try:
            object.__setattr__(self, "seed", int(self.seed))
        except (TypeError, ValueError):
            raise RunSpecError(f"seed must be an integer, got {self.seed!r}") from None

    def _validate_sharding(self) -> None:
        for field_name in ("shards", "workers"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise RunSpecError(f"{field_name} must be a positive integer, got {value!r}")
        # `workers` alone means "one shard per worker" — normalise before the
        # consistency checks so downstream layers see one shard count.
        if self.workers > 1 and self.shards == 1:
            object.__setattr__(self, "shards", self.workers)
        if self.shards == 1 and self.workers == 1:
            return  # the default: no scale-out, nothing further to validate
        if self.mode != "streaming":
            raise RunSpecError(
                f"shards={self.shards}/workers={self.workers} "
                f"require mode='streaming'; got mode={self.mode!r}"
            )
        if self.workers > 1 and self.shards != self.workers:
            raise RunSpecError(
                f"a process pool runs one shard per worker; got shards={self.shards} "
                f"with workers={self.workers} (pass shards=workers, or shards= alone "
                f"for in-process shards)"
            )
        if not isinstance(self.algorithm, str):
            raise RunSpecError(
                "sharded streaming requires an algorithm registry key (sessions are "
                "built per shard/worker); callable algorithms cannot be sharded"
            )
        from repro.engine.streaming import STREAMING_ALGORITHMS

        if self.algorithm not in STREAMING_ALGORITHMS:
            raise RunSpecError(
                f"algorithm {self.algorithm!r} cannot be sharded: shard sessions build "
                f"from a streaming algorithm key ({_known(STREAMING_ALGORITHMS.keys())}); "
                f"run it with shards=1, workers=1"
            )
        if self.algorithm != "fractional":
            raise RunSpecError(
                f"algorithm {self.algorithm!r} cannot be sharded in a trial: a sharded "
                f"trial is scored as a fractional one (the shards' summed fractional "
                f"cost against the fractional bound), which only 'fractional' is; run "
                f"it with shards=1, workers=1 (repro serve --shards shards any "
                f"streaming key)"
            )
        if self.probe is not None:
            raise RunSpecError(
                "probe= is incompatible with sharded streaming (there is no single "
                "in-process algorithm object to probe); drop the probe or run with "
                "shards=1, workers=1"
            )

    # -- derived views ----------------------------------------------------------------
    @property
    def resolved_scenario(self) -> Optional[Scenario]:
        """The scenario object of a scenario/trace-sourced spec (post-validation)."""
        scenario = self.scenario
        return scenario if isinstance(scenario, Scenario) else None

    @property
    def scenario_param_pairs(self) -> Tuple[Tuple[str, Any], ...]:
        """The normalised scenario overrides (always a sorted pair tuple)."""
        return tuple(self.scenario_params or ())  # type: ignore[arg-type]  # normalised in __post_init__

    @property
    def algorithm_param_pairs(self) -> Tuple[Tuple[str, Any], ...]:
        """The normalised algorithm kwargs (always a sorted pair tuple)."""
        return tuple(self.algorithm_params or ())  # type: ignore[arg-type]  # normalised in __post_init__

    @property
    def algorithm_key(self) -> str:
        """Display key of the algorithm: the registry key (also of a registry
        factory), or the callable's name."""
        if isinstance(self.algorithm, str):
            return self.algorithm
        if isinstance(self.algorithm, (RegistryAlgorithmFactory, FixedSeedAlgorithmFactory)):
            return self.algorithm.key
        name = getattr(self.algorithm, "__name__", None)
        return name or type(self.algorithm).__name__

    @property
    def source_key(self) -> str:
        """Stable display key of the workload source."""
        scenario = self.resolved_scenario
        if scenario is not None:
            return scenario.key
        if self.instance is not None:
            return f"instance:{getattr(self.instance, 'name', type(self.instance).__name__)}"
        name = getattr(self.factory, "__name__", None) or type(self.factory).__name__
        return f"factory:{name}"

    def scenario_param_dict(self) -> Dict[str, Any]:
        """The scenario parameter overrides as a plain dict."""
        return dict(self.scenario_params or ())

    def algorithm_param_dict(self) -> Dict[str, Any]:
        """The algorithm builder kwargs as a plain dict."""
        return dict(self.algorithm_params or ())

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        merged = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        # The param tuples were normalised; hand dicts back to the constructor.
        merged["scenario_params"] = self.scenario_param_dict() or None
        merged["algorithm_params"] = self.algorithm_param_dict() or None
        if "trace" not in changes:
            # The trace was already folded into `scenario`; avoid a two-source error.
            merged["trace"] = None
        merged.update(changes)
        return RunSpec(**merged)

    # -- grid construction ------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        scenarios: Sequence[Union[str, Scenario]],
        algorithms: Sequence[Union[str, Callable[..., Any]]],
        *,
        backends: Sequence[str] = (DEFAULT_BACKEND,),
        modes: Sequence[str] = ("compiled",),
        seed: int = 0,
        scenario_overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
        **common: Any,
    ) -> List["RunSpec"]:
        """Expand scenarios x algorithms x backends x modes into a spec list.

        Per-cell seeds derive from ``(seed, scenario key, algorithm)`` via
        :func:`~repro.utils.rng.stable_seed`, so adding or removing a
        scenario never perturbs another cell's numbers and a single cell
        reproduces in isolation.  ``repro sweep``
        (:func:`~repro.engine.sweep.run_sweep_specs`) is this grid over one
        backend and one mode.  Extra keyword arguments (``trials``, ``jobs``,
        ``offline``, ``vectorized``, ...) are applied to every spec.
        """
        if not scenarios:
            raise RunSpecError("need at least one scenario")
        if not algorithms:
            raise RunSpecError("need at least one algorithm")
        if not backends:
            raise RunSpecError("need at least one backend")
        if not modes:
            raise RunSpecError("need at least one mode")
        from repro.scenarios.registry import get_scenario

        resolved = [get_scenario(s) for s in scenarios]
        keys = [s.key for s in resolved]
        dup = sorted({k for k in keys if keys.count(k) > 1})
        if dup:
            raise RunSpecError(f"duplicate scenario keys in grid: {dup}")
        algo_keys = [a if isinstance(a, str) else getattr(a, "__name__", repr(a)) for a in algorithms]
        # Each spec lower-cases a registry key, so keys differing only in case
        # are one algorithm; cell seeds still derive from the key as given.
        canonical = [k.strip().lower() if isinstance(a, str) else k for a, k in zip(algorithms, algo_keys)]
        dup = sorted({a for a in canonical if canonical.count(a) > 1})
        if dup:
            raise RunSpecError(f"duplicate algorithm keys in grid: {dup}")
        overrides = dict(scenario_overrides or {})

        specs: List[RunSpec] = []
        for scenario in resolved:
            for algorithm, algo_key in zip(algorithms, algo_keys):
                cell_seed = stable_seed(seed, scenario.key, algo_key, "sweep")
                for backend in backends:
                    for mode in modes:
                        specs.append(
                            cls(
                                scenario=scenario,
                                algorithm=algorithm,
                                backend=backend,
                                mode=mode,
                                seed=cell_seed,
                                scenario_params=overrides.get(scenario.key),
                                **common,
                            )
                        )
        return specs
