"""Exact (integral) offline optimum for admission control.

The integral problem — choose which requests to reject so that the accepted
ones respect every edge capacity and the rejected cost is minimum — is solved
with ``scipy.optimize.milp`` (HiGHS branch-and-bound).  This is the ``OPT`` of
the competitive-ratio definition for Theorems 3 and 4.

For instances too large for exact solving the caller should fall back to
:func:`repro.offline.admission_lp.solve_admission_lp`, whose value is a lower
bound on OPT (and therefore still yields valid *upper* bounds on the measured
competitive ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.instances.admission import AdmissionInstance

__all__ = ["IntegralSolution", "solve_admission_ilp"]


@dataclass
class IntegralSolution:
    """An optimal integral solution to an admission-control instance."""

    cost: float
    rejected_ids: FrozenSet[int] = frozenset()
    accepted_ids: FrozenSet[int] = frozenset()
    status: str = "optimal"

    @property
    def num_rejections(self) -> int:
        """Number of rejected requests."""
        return len(self.rejected_ids)


def solve_admission_ilp(
    instance: AdmissionInstance,
    *,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
) -> IntegralSolution:
    """Solve the integral admission-control problem exactly with HiGHS MILP.

    Parameters
    ----------
    instance:
        The admission-control instance.
    time_limit:
        Optional wall-clock limit in seconds; when hit, the best incumbent is
        returned with status ``"time_limit"`` (its cost is an upper bound on
        OPT, which makes measured competitive ratios conservative).
    mip_rel_gap:
        Relative optimality gap passed to HiGHS (0.0 = prove optimality).
    """
    from scipy import sparse
    from scipy.optimize import LinearConstraint, milp

    requests = list(instance.requests)
    n = len(requests)
    if n == 0:
        return IntegralSolution(cost=0.0, status="optimal")

    edges = instance.edges()
    edge_index = {e: k for k, e in enumerate(edges)}
    costs = np.array([r.cost for r in requests], dtype=float)

    # Variables: x_i = 1 if request i is ACCEPTED. Objective: minimise rejected
    # cost = sum p_i (1 - x_i)  <=>  maximise sum p_i x_i.
    rows: List[int] = []
    cols: List[int] = []
    for col, request in enumerate(requests):
        for e in request.ordered_edges:
            rows.append(edge_index[e])
            cols.append(col)
    data = np.ones(len(rows), dtype=float)
    a = sparse.coo_matrix((data, (rows, cols)), shape=(len(edges), n)).tocsc()
    capacities = np.array([instance.capacity(e) for e in edges], dtype=float)

    constraints = LinearConstraint(a, ub=capacities)
    options: Dict[str, float] = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    result = milp(
        c=-costs,  # maximise accepted cost
        constraints=constraints,
        integrality=np.ones(n),
        bounds=(0, 1),
        options=options,
    )

    if result.x is None:
        # Should not happen (rejecting everything is feasible); be conservative.
        return IntegralSolution(
            cost=float(costs.sum()),
            rejected_ids=frozenset(r.request_id for r in requests),
            accepted_ids=frozenset(),
            status=f"fallback:{result.status}",
        )

    x = np.rint(result.x).astype(int)
    accepted = frozenset(requests[i].request_id for i in range(n) if x[i] == 1)
    rejected = frozenset(requests[i].request_id for i in range(n) if x[i] == 0)
    rejected_cost = float(costs[[i for i in range(n) if x[i] == 0]].sum()) if rejected else 0.0
    status = "optimal" if result.status == 0 else ("time_limit" if result.status == 1 else str(result.status))
    return IntegralSolution(
        cost=rejected_cost, rejected_ids=rejected, accepted_ids=accepted, status=status
    )
