"""The paper's algorithms: fractional, randomized, doubling, reduction, bicriteria.

This subpackage contains everything Sections 2–5 of the paper describe:

* :class:`~repro.core.fractional.FractionalAdmissionControl` — Section 2.
* :class:`~repro.core.randomized.RandomizedAdmissionControl` — Section 3.
* :class:`~repro.core.doubling.DoublingAdmissionControl` and
  :class:`~repro.core.doubling.DoublingFractionalAdmissionControl` — the
  guess-and-double estimation of the optimal cost.
* :class:`~repro.core.setcover_reduction.OnlineSetCoverViaAdmissionControl` —
  Section 4's reduction, giving randomized online set cover with repetitions.
* :class:`~repro.core.bicriteria.BicriteriaOnlineSetCover` — Section 5.
* :mod:`~repro.core.bounds` and :mod:`~repro.core.potential` — the theoretical
  bounds and proof potentials as runtime-checkable quantities.
"""

from repro.core.bicriteria import AugmentationTrace, BicriteriaOnlineSetCover
from repro.core.bounds import (
    BoundReport,
    bicriteria_set_cover_bound,
    bound_for_admission_instance,
    bound_for_setcover_instance,
    fractional_admission_bound,
    lemma1_augmentation_bound,
    lemma5_augmentation_bound,
    randomized_admission_bound,
    set_cover_randomized_bound,
)
from repro.core.doubling import (
    AlphaSchedule,
    DoublingAdmissionControl,
    DoublingFractionalAdmissionControl,
)
from repro.core.fractional import (
    CostClass,
    FractionalAdmissionControl,
    FractionalDecision,
    FractionalRunResult,
)
from repro.core.protocols import (
    AdmissionResult,
    InfeasibleArrivalError,
    OnlineAdmissionAlgorithm,
    OnlineSetCoverAlgorithm,
    SetCoverResult,
    run_admission,
    run_setcover,
)
from repro.core.randomized import RandomizedAdmissionControl
from repro.core.setcover_reduction import (
    OnlineSetCoverViaAdmissionControl,
    admission_instance_from_setcover,
    build_reduction,
    element_edge,
)
from repro.engine.backends import ArrivalOutcome, AugmentationRecord

__all__ = [
    "AugmentationTrace",
    "BicriteriaOnlineSetCover",
    "BoundReport",
    "bicriteria_set_cover_bound",
    "bound_for_admission_instance",
    "bound_for_setcover_instance",
    "fractional_admission_bound",
    "lemma1_augmentation_bound",
    "lemma5_augmentation_bound",
    "randomized_admission_bound",
    "set_cover_randomized_bound",
    "AlphaSchedule",
    "DoublingAdmissionControl",
    "DoublingFractionalAdmissionControl",
    "CostClass",
    "FractionalAdmissionControl",
    "FractionalDecision",
    "FractionalRunResult",
    "AdmissionResult",
    "InfeasibleArrivalError",
    "OnlineAdmissionAlgorithm",
    "OnlineSetCoverAlgorithm",
    "SetCoverResult",
    "run_admission",
    "run_setcover",
    "RandomizedAdmissionControl",
    "OnlineSetCoverViaAdmissionControl",
    "admission_instance_from_setcover",
    "build_reduction",
    "element_edge",
    "ArrivalOutcome",
    "AugmentationRecord",
]
