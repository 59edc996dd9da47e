"""Pluggable execution engine: backends, registries, runtime, executor.

The engine is the seam between *what* the paper's algorithms compute and *how*
the library executes it:

* :mod:`repro.engine.registry` — string-keyed registries for weight backends,
  admission/set-cover algorithms and experiments (strict duplicate handling,
  self-describing lookup errors).
* :mod:`repro.engine.backends` — the multiplicative-weight mechanism behind
  the :class:`~repro.engine.backends.WeightBackend` protocol, as scalar
  reference code (:class:`~repro.engine.backends.PythonWeightBackend`) and as
  vectorized NumPy kernels (:class:`~repro.engine.backends.NumpyWeightBackend`).
* :mod:`repro.engine.runtime` — :func:`~repro.engine.runtime.make_admission_algorithm`
  and :func:`~repro.engine.runtime.make_setcover_algorithm`, which build
  algorithms from registry keys.
* :mod:`repro.engine.executor` — the parallel trial executor with
  deterministic per-trial seed derivation.
* :mod:`repro.engine.config` — :class:`~repro.engine.config.EngineConfig`,
  the ``--backend`` / ``--jobs`` knobs as one picklable object.
* :mod:`repro.engine.sweep` — :func:`~repro.engine.sweep.run_sweep_specs`,
  the scenarios x algorithms matrix ``repro sweep`` runs (not re-exported
  here: it sits above the analysis layer, so importing it eagerly would
  cycle).
"""

from repro.engine.backends import (
    ArrivalOutcome,
    NumpyWeightBackend,
    PythonWeightBackend,
    WeightBackend,
    make_weight_backend,
    resolve_backend_name,
    resolve_record_flag,
)
from repro.engine.config import EngineConfig
from repro.engine.executor import derive_seed_pairs, execute
from repro.engine.registry import (
    ADMISSION_ALGORITHMS,
    EXPERIMENTS,
    SETCOVER_ALGORITHMS,
    WEIGHT_BACKENDS,
    DuplicateKeyError,
    Registry,
    RegistryError,
    UnknownKeyError,
)
from repro.engine.runtime import make_admission_algorithm, make_setcover_algorithm

# Registers the optional "numba" backend when numba is installed (a no-op
# otherwise); must come after the backends import it builds on.
from repro.engine import numba_backend as _numba_backend  # noqa: E402,F401

def __getattr__(name: str):
    # Lazy: repro.engine.streaming imports repro.core, which imports
    # repro.engine.registry; importing it at the top of this package would
    # create a cycle.
    if name in ("StreamingSession", "STREAMING_ALGORITHMS"):
        from repro.engine import streaming

        return getattr(streaming, name)
    if name == "ProcessShardPool":
        from repro.engine.shards import ProcessShardPool

        return ProcessShardPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "StreamingSession",
    "ProcessShardPool",
    "STREAMING_ALGORITHMS",
    "ArrivalOutcome",
    "NumpyWeightBackend",
    "PythonWeightBackend",
    "WeightBackend",
    "make_weight_backend",
    "resolve_backend_name",
    "resolve_record_flag",
    "EngineConfig",
    "derive_seed_pairs",
    "execute",
    "ADMISSION_ALGORITHMS",
    "EXPERIMENTS",
    "SETCOVER_ALGORITHMS",
    "WEIGHT_BACKENDS",
    "DuplicateKeyError",
    "Registry",
    "RegistryError",
    "UnknownKeyError",
    "make_admission_algorithm",
    "make_setcover_algorithm",
]
