"""Fractional offline optimum for admission control (LP relaxation).

Theorem 2 measures the fractional algorithm against the *fractional* optimum,
so the experiment harness needs it explicitly.  The LP is::

    minimise    sum_i p_i * f_i
    subject to  sum_{i : e in path_i} (1 - f_i) <= c_e      for every edge e
                0 <= f_i <= 1

where ``f_i`` is the rejected fraction of request ``i``.  The constraint is the
capacity constraint written for the accepted fractions.  The LP value is also a
lower bound on the integral optimum, which the analysis module uses when exact
ILP solving is too slow.

The constraint matrix is assembled as a ``scipy.sparse`` COO matrix in one
vectorised pass (per the hpc guides: no per-coefficient Python work inside the
solver loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.instances.admission import AdmissionInstance

__all__ = ["FractionalSolution", "solve_admission_lp", "solve_admission_lp_cached"]

#: Attribute used to memoize the LP solution on the instance (mirrors the
#: compiled-instance cache in :mod:`repro.instances.compiled`).
_CACHE_ATTR = "_lp_solution_cache"


@dataclass
class FractionalSolution:
    """An optimal fractional solution to an admission-control instance.

    Attributes
    ----------
    cost:
        Optimal fractional rejection cost (``alpha`` in the paper's notation).
    fractions:
        Optimal rejected fraction per request id (``f*_i`` in Lemma 1).
    status:
        Solver status string (``"optimal"`` on success).
    """

    cost: float
    fractions: Dict[int, float] = field(default_factory=dict)
    status: str = "optimal"

    def rejected_support(self, tol: float = 1e-9) -> List[int]:
        """Request ids with a strictly positive rejected fraction."""
        return [rid for rid, f in self.fractions.items() if f > tol]


def solve_admission_lp(instance: AdmissionInstance) -> FractionalSolution:
    """Solve the fractional admission-control relaxation exactly (HiGHS LP).

    Returns the optimal fractional rejection cost and the per-request rejected
    fractions.  Infeasibility cannot occur (rejecting everything is always
    feasible), so a non-optimal status indicates a numerical problem and is
    surfaced in the ``status`` field.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    requests = list(instance.requests)
    n = len(requests)
    if n == 0:
        return FractionalSolution(cost=0.0, fractions={}, status="optimal")

    edges = instance.edges()
    edge_index = {e: k for k, e in enumerate(edges)}
    costs = np.array([r.cost for r in requests], dtype=float)

    # Capacity constraints: sum_{i on e} (1 - f_i) <= c_e
    #   <=>  -sum_{i on e} f_i <= c_e - |REQ_e|
    rows: List[int] = []
    cols: List[int] = []
    for col, request in enumerate(requests):
        for e in request.ordered_edges:
            rows.append(edge_index[e])
            cols.append(col)
    data = -np.ones(len(rows), dtype=float)
    a_ub = sparse.coo_matrix((data, (rows, cols)), shape=(len(edges), n)).tocsr()

    edge_loads = np.zeros(len(edges), dtype=float)
    for request in requests:
        for e in request.ordered_edges:
            edge_loads[edge_index[e]] += 1.0
    capacities = np.array([instance.capacity(e) for e in edges], dtype=float)
    b_ub = capacities - edge_loads

    result = linprog(
        c=costs,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not result.success:
        # Rejecting everything is feasible, so fall back to it rather than fail.
        fractions = {r.request_id: 1.0 for r in requests}
        return FractionalSolution(
            cost=float(costs.sum()), fractions=fractions, status=f"fallback:{result.status}"
        )
    fractions = {
        requests[i].request_id: float(np.clip(result.x[i], 0.0, 1.0)) for i in range(n)
    }
    return FractionalSolution(cost=float(result.fun), fractions=fractions, status="optimal")


def solve_admission_lp_cached(instance: AdmissionInstance) -> FractionalSolution:
    """Like :func:`solve_admission_lp`, memoized on the instance.

    The run-spec pipeline can need the fractional optimum several times for
    one instance in one worker — the oracle-alpha algorithm factory, the LP
    comparator, an invariant probe — and instances are immutable once built,
    so the solution is cached on the instance exactly the way
    :func:`repro.instances.compiled.compile_instance` caches its arrays.
    Callers that mutate an instance in place (none in the library) must use
    the uncached solver.
    """
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    solution = solve_admission_lp(instance)
    try:
        setattr(instance, _CACHE_ATTR, solution)
    except (AttributeError, TypeError):  # pragma: no cover - exotic instance types
        pass
    return solution
