"""Offline solvers for (multiplicity-constrained) set multi-cover.

The offline comparator of the online set cover with repetitions problem: given
final demands ``d_j`` (how many times each element arrived), choose a minimum
cost sub-family such that every element ``j`` belongs to at least ``d_j``
chosen sets.  Because repetitions must be covered by *different* sets, each set
can be bought at most once — the problem is the classic set multi-cover with
multiplicity constraints.

Three solvers are provided:

* :func:`solve_set_multicover_ilp` — exact optimum via HiGHS MILP;
* :func:`solve_set_multicover_lp` — LP relaxation (lower bound on OPT);
* :func:`greedy_set_multicover` — the classical greedy, an ``H_n``
  approximation, useful as a fast upper bound and as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional

import numpy as np

from repro.instances.setcover import ElementId, SetCoverInstance, SetId, SetSystem

__all__ = [
    "CoverSolution",
    "FractionalCoverSolution",
    "solve_set_multicover_ilp",
    "solve_set_multicover_lp",
    "greedy_set_multicover",
    "demands_from_instance",
]


@dataclass
class CoverSolution:
    """An integral multi-cover (chosen sets + cost)."""

    cost: float
    chosen: FrozenSet[SetId] = frozenset()
    status: str = "optimal"

    @property
    def num_sets(self) -> int:
        """Number of chosen sets."""
        return len(self.chosen)


@dataclass
class FractionalCoverSolution:
    """A fractional multi-cover (per-set fractions + cost)."""

    cost: float
    fractions: Dict[SetId, float] = field(default_factory=dict)
    status: str = "optimal"


def demands_from_instance(instance: SetCoverInstance) -> Dict[ElementId, int]:
    """Final demand per element induced by an arrival sequence."""
    return instance.demands()


def _constraint_matrix(system: SetSystem, demanded: List[ElementId]):
    """Sparse element-by-set incidence matrix restricted to demanded elements."""
    from scipy import sparse

    set_ids = system.set_ids()
    set_index = {sid: k for k, sid in enumerate(set_ids)}
    rows: List[int] = []
    cols: List[int] = []
    for row, element in enumerate(demanded):
        for sid in system.sets_containing(element):
            rows.append(row)
            cols.append(set_index[sid])
    data = np.ones(len(rows), dtype=float)
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=(len(demanded), len(set_ids)))
    return matrix.tocsc(), set_ids


def _check_feasible(system: SetSystem, demands: Mapping[ElementId, int]) -> Optional[str]:
    """Return an error string if some demand exceeds the element's degree."""
    for element, demand in demands.items():
        if demand > system.degree(element):
            return (
                f"element {element!r} demands {demand} covers but only "
                f"{system.degree(element)} sets contain it"
            )
    return None


def solve_set_multicover_ilp(
    system: SetSystem,
    demands: Mapping[ElementId, int],
    *,
    time_limit: Optional[float] = None,
) -> CoverSolution:
    """Exact minimum-cost set multi-cover via HiGHS MILP.

    Raises
    ------
    ValueError
        If some demand exceeds the number of sets containing the element
        (the instance is infeasible for every algorithm).
    """
    from scipy.optimize import LinearConstraint, milp

    error = _check_feasible(system, demands)
    if error:
        raise ValueError(error)
    demanded = [e for e, d in demands.items() if d > 0]
    if not demanded:
        return CoverSolution(cost=0.0, chosen=frozenset(), status="optimal")

    matrix, set_ids = _constraint_matrix(system, demanded)
    lower = np.array([demands[e] for e in demanded], dtype=float)
    costs = np.array([system.cost(sid) for sid in set_ids], dtype=float)

    options: Dict[str, float] = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=costs,
        constraints=LinearConstraint(matrix, lb=lower),
        integrality=np.ones(len(set_ids)),
        bounds=(0, 1),
        options=options,
    )
    if result.x is None:
        # Feasibility was checked above; fall back to buying everything.
        return CoverSolution(
            cost=float(costs.sum()), chosen=frozenset(set_ids), status=f"fallback:{result.status}"
        )
    x = np.rint(result.x).astype(int)
    chosen = frozenset(set_ids[i] for i in range(len(set_ids)) if x[i] == 1)
    cost = float(sum(system.cost(sid) for sid in chosen))
    status = "optimal" if result.status == 0 else ("time_limit" if result.status == 1 else str(result.status))
    return CoverSolution(cost=cost, chosen=chosen, status=status)


def solve_set_multicover_lp(
    system: SetSystem, demands: Mapping[ElementId, int]
) -> FractionalCoverSolution:
    """LP relaxation of set multi-cover (a lower bound on the integral optimum)."""
    from scipy.optimize import linprog

    error = _check_feasible(system, demands)
    if error:
        raise ValueError(error)
    demanded = [e for e, d in demands.items() if d > 0]
    set_ids = system.set_ids()
    if not demanded:
        return FractionalCoverSolution(cost=0.0, fractions={sid: 0.0 for sid in set_ids})

    matrix, set_ids = _constraint_matrix(system, demanded)
    lower = np.array([demands[e] for e in demanded], dtype=float)
    costs = np.array([system.cost(sid) for sid in set_ids], dtype=float)
    result = linprog(
        c=costs,
        A_ub=-matrix,
        b_ub=-lower,
        bounds=[(0.0, 1.0)] * len(set_ids),
        method="highs",
    )
    if not result.success:
        return FractionalCoverSolution(
            cost=float(costs.sum()),
            fractions={sid: 1.0 for sid in set_ids},
            status=f"fallback:{result.status}",
        )
    fractions = {set_ids[i]: float(np.clip(result.x[i], 0.0, 1.0)) for i in range(len(set_ids))}
    return FractionalCoverSolution(cost=float(result.fun), fractions=fractions, status="optimal")


def greedy_set_multicover(system: SetSystem, demands: Mapping[ElementId, int]) -> CoverSolution:
    """Classical greedy multi-cover: repeatedly buy the most cost-effective set.

    Cost effectiveness of an unbought set = (remaining demand it satisfies) /
    cost.  For unit costs this is the textbook ``H_n``-approximation of
    Chvátal's greedy extended to multi-cover.
    """
    error = _check_feasible(system, demands)
    if error:
        raise ValueError(error)
    remaining: Dict[ElementId, int] = {e: d for e, d in demands.items() if d > 0}
    chosen: List[SetId] = []
    available = set(system.set_ids())
    total_cost = 0.0
    while remaining:
        best_sid = None
        best_ratio = -1.0
        for sid in available:
            covered = sum(1 for e in system.members(sid) if remaining.get(e, 0) > 0)
            if covered == 0:
                continue
            cost = max(system.cost(sid), 1e-12)
            ratio = covered / cost
            if ratio > best_ratio:
                best_ratio = ratio
                best_sid = sid
        if best_sid is None:
            # No available set covers any remaining demand: infeasible residue,
            # which _check_feasible should have excluded.
            break
        available.remove(best_sid)
        chosen.append(best_sid)
        total_cost += system.cost(best_sid)
        for element in system.members(best_sid):
            if element in remaining:
                remaining[element] -= 1
                if remaining[element] <= 0:
                    del remaining[element]
    return CoverSolution(cost=total_cost, chosen=frozenset(chosen), status="greedy")
