"""Competitive-ratio measurement for single runs.

Ties together an online run, the offline comparator, and the relevant
theoretical bound into one record (:class:`CompetitiveRecord`) that the trial
runner and the experiments aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.bounds import BoundReport, bound_for_admission_instance, bound_for_setcover_instance
from repro.core.protocols import (
    AdmissionResult,
    OnlineAdmissionAlgorithm,
    OnlineSetCoverAlgorithm,
    SetCoverResult,
    run_admission,
    run_setcover,
)
from repro.instances.admission import AdmissionInstance
from repro.instances.setcover import SetCoverInstance
from repro.offline import (
    solve_admission_ilp,
    solve_admission_lp,
    solve_admission_lp_cached,
    solve_set_multicover_ilp,
    solve_set_multicover_lp,
)
from repro.utils.mathx import safe_ratio

__all__ = [
    "CompetitiveRecord",
    "evaluate_admission_run",
    "evaluate_admission_algorithm",
    "evaluate_fractional_run",
    "evaluate_setcover_run",
    "evaluate_setcover_algorithm",
]


@dataclass
class CompetitiveRecord:
    """One (algorithm, instance) evaluation.

    Attributes
    ----------
    algorithm:
        Display name of the online algorithm.
    instance_name:
        Display name of the instance.
    online_cost:
        Objective value achieved by the online algorithm.
    offline_cost:
        Offline comparator value (exact OPT, or a lower bound — see
        ``offline_kind``).
    offline_kind:
        ``"ilp"`` (exact), ``"lp"`` (fractional lower bound) or custom.
    ratio:
        ``online_cost / offline_cost`` with the 0/0 := 1 convention.
    bound:
        The paper's bound expression evaluated on the instance parameters.
    normalized_ratio:
        ``ratio / bound.value`` — the empirical "hidden constant"; should stay
        bounded as instances grow if the implementation matches the theory.
    feasible:
        Whether the online solution was feasible (admission) / satisfied
        demands (set cover).
    extra:
        Diagnostics carried over from the online result.
    """

    algorithm: str
    instance_name: str
    online_cost: float
    offline_cost: float
    offline_kind: str
    ratio: float
    bound: Optional[BoundReport] = None
    normalized_ratio: Optional[float] = None
    feasible: bool = True
    extra: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        """Flat dict for tables."""
        return {
            "algorithm": self.algorithm,
            "instance": self.instance_name,
            "online": self.online_cost,
            "offline": self.offline_cost,
            "offline_kind": self.offline_kind,
            "ratio": self.ratio,
            "bound": self.bound.value if self.bound else float("nan"),
            "ratio/bound": self.normalized_ratio if self.normalized_ratio is not None else float("nan"),
            "feasible": self.feasible,
        }


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def evaluate_admission_run(
    instance: AdmissionInstance,
    result: AdmissionResult,
    *,
    offline: str = "ilp",
    randomized_bound: bool = True,
    ilp_time_limit: Optional[float] = 30.0,
) -> CompetitiveRecord:
    """Compare a finished admission run against the offline optimum.

    ``offline`` selects the comparator: ``"ilp"`` (exact integral OPT, with a
    time limit), ``"lp"`` (fractional OPT — the right comparator for the
    fractional algorithm and a valid lower bound otherwise).
    """
    if offline == "ilp":
        opt = solve_admission_ilp(instance, time_limit=ilp_time_limit)
        offline_cost, offline_kind = opt.cost, f"ilp:{opt.status}"
    elif offline == "lp":
        opt_lp = solve_admission_lp(instance)
        offline_cost, offline_kind = opt_lp.cost, f"lp:{opt_lp.status}"
    else:
        raise ValueError(f"unknown offline comparator {offline!r}")

    ratio = safe_ratio(result.rejection_cost, offline_cost)
    bound = bound_for_admission_instance(instance, randomized=randomized_bound)
    return CompetitiveRecord(
        algorithm=result.algorithm,
        instance_name=instance.name,
        online_cost=result.rejection_cost,
        offline_cost=offline_cost,
        offline_kind=offline_kind,
        ratio=ratio,
        bound=bound,
        normalized_ratio=bound.normalized(ratio),
        feasible=result.feasible,
        extra=dict(result.extra),
    )


def evaluate_admission_algorithm(
    instance: AdmissionInstance,
    algorithm_factory: Callable[[AdmissionInstance], OnlineAdmissionAlgorithm],
    **kwargs,
) -> CompetitiveRecord:
    """Run ``algorithm_factory(instance)`` on the instance and evaluate it."""
    algorithm = algorithm_factory(instance)
    result = run_admission(algorithm, instance)
    return evaluate_admission_run(instance, result, **kwargs)


def evaluate_fractional_run(
    instance: AdmissionInstance,
    online_cost: float,
    *,
    algorithm: str,
    extra: Dict[str, Any],
) -> CompetitiveRecord:
    """Compare a fractional online cost against the fractional optimum (the LP).

    The comparator of the Section-2 algorithm and of sharded fractional runs,
    whose online cost is a sum over shards.  The LP solve is cached: oracle-
    alpha factories and invariant probes may solve the same instance's LP in
    the same worker.  ``feasible`` is not checked here; it is always ``True``.
    """
    opt = solve_admission_lp_cached(instance)
    ratio = safe_ratio(online_cost, opt.cost)
    bound = bound_for_admission_instance(instance, randomized=False)
    return CompetitiveRecord(
        algorithm=algorithm,
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


# ---------------------------------------------------------------------------
# Set cover with repetitions
# ---------------------------------------------------------------------------


def evaluate_setcover_run(
    instance: SetCoverInstance,
    result: SetCoverResult,
    *,
    offline: str = "ilp",
    bicriteria_bound: bool = False,
    ilp_time_limit: Optional[float] = 30.0,
) -> CompetitiveRecord:
    """Compare a finished set-cover run against the offline multi-cover optimum."""
    demands = instance.demands()
    if offline == "ilp":
        opt = solve_set_multicover_ilp(instance.system, demands, time_limit=ilp_time_limit)
        offline_cost, offline_kind = opt.cost, f"ilp:{opt.status}"
    elif offline == "lp":
        opt_lp = solve_set_multicover_lp(instance.system, demands)
        offline_cost, offline_kind = opt_lp.cost, f"lp:{opt_lp.status}"
    else:
        raise ValueError(f"unknown offline comparator {offline!r}")

    ratio = safe_ratio(result.cost, offline_cost)
    bound = bound_for_setcover_instance(instance, bicriteria=bicriteria_bound)
    feasible = result.satisfied or bool(result.extra.get("bicriteria_satisfied", False))
    return CompetitiveRecord(
        algorithm=result.algorithm,
        instance_name=instance.name,
        online_cost=result.cost,
        offline_cost=offline_cost,
        offline_kind=offline_kind,
        ratio=ratio,
        bound=bound,
        normalized_ratio=bound.normalized(ratio),
        feasible=feasible,
        extra=dict(result.extra),
    )


def evaluate_setcover_algorithm(
    instance: SetCoverInstance,
    algorithm_factory: Callable[[SetCoverInstance], OnlineSetCoverAlgorithm],
    **kwargs,
) -> CompetitiveRecord:
    """Run ``algorithm_factory(instance)`` on the instance and evaluate it."""
    algorithm = algorithm_factory(instance)
    result = run_setcover(algorithm, instance)
    return evaluate_setcover_run(instance, result, **kwargs)
