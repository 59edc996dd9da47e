"""repro — a reproduction of Alon, Azar & Gutner (SPAA 2005).

*Admission Control to Minimize Rejections and Online Set Cover with
Repetitions.*

The package implements the paper's online algorithms (fractional, randomized,
guess-and-double, the set-cover reduction and the deterministic bicriteria
algorithm), the substrates they run on (capacitated networks, set systems,
workload generators, offline optimum solvers) and an experiment harness that
measures competitive ratios against the paper's theoretical bounds.

Quick start
-----------
The unified run-spec API (:mod:`repro.api`) is the front door: describe a run
as data, execute it, read tidy rows back::

    >>> from repro.api import RunSpec, Runner
    >>> spec = RunSpec(scenario="hotspot", algorithm="doubling",
    ...                backend="numpy", trials=3, seed=7)
    >>> results = Runner().run(spec)
    >>> results.all_feasible()
    True

The algorithm objects remain directly usable for fine-grained control:

>>> from repro import RandomizedAdmissionControl, run_admission
>>> from repro.instances.canonical import star_congestion
>>> instance = star_congestion(leaves=6, capacity=2)
>>> algo = RandomizedAdmissionControl.for_instance(instance, random_state=0)
>>> result = run_admission(algo, instance)
>>> result.feasible
True

Execution engine
----------------
The multiplicative weight mechanism lives in :mod:`repro.engine.backends`
behind the ``WeightBackend`` protocol:

* ``PythonWeightBackend`` is the scalar reference code and
  ``NumpyWeightBackend`` its vectorized twin; ``ArrivalOutcome`` carries
  the per-arrival diagnostics;
* every core algorithm accepts ``backend="numpy"`` (or an
  :class:`~repro.engine.config.EngineConfig`) to run on the vectorized
  NumPy backend, e.g.
  ``RandomizedAdmissionControl.for_instance(instance, backend="numpy")``;
* algorithms, backends and experiments resolve by string key through
  :mod:`repro.engine.registry`
  (:func:`~repro.engine.runtime.make_admission_algorithm` builds one), and
  ``RunSpec(..., jobs=N)`` fans trials out in parallel.  See ARCHITECTURE.md
  for the layering.
"""

from repro.core import (
    AdmissionResult,
    BicriteriaOnlineSetCover,
    DoublingAdmissionControl,
    DoublingFractionalAdmissionControl,
    FractionalAdmissionControl,
    InfeasibleArrivalError,
    OnlineAdmissionAlgorithm,
    OnlineSetCoverAlgorithm,
    OnlineSetCoverViaAdmissionControl,
    RandomizedAdmissionControl,
    SetCoverResult,
    run_admission,
    run_setcover,
)
from repro.engine import (
    EngineConfig,
    NumpyWeightBackend,
    PythonWeightBackend,
    WeightBackend,
)
from repro.instances import (
    AdmissionInstance,
    Decision,
    DecisionKind,
    Request,
    RequestSequence,
    SetCoverInstance,
    SetSystem,
)

__version__ = "1.1.0"

__all__ = [
    "AdmissionResult",
    "BicriteriaOnlineSetCover",
    "DoublingAdmissionControl",
    "DoublingFractionalAdmissionControl",
    "FractionalAdmissionControl",
    "InfeasibleArrivalError",
    "OnlineAdmissionAlgorithm",
    "OnlineSetCoverAlgorithm",
    "OnlineSetCoverViaAdmissionControl",
    "RandomizedAdmissionControl",
    "SetCoverResult",
    "run_admission",
    "run_setcover",
    "EngineConfig",
    "NumpyWeightBackend",
    "PythonWeightBackend",
    "WeightBackend",
    "AdmissionInstance",
    "Decision",
    "DecisionKind",
    "Request",
    "RequestSequence",
    "SetCoverInstance",
    "SetSystem",
    "__version__",
]
