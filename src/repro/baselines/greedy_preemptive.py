"""Preemptive greedy baselines for admission control.

Two natural deterministic policies in the spirit of the simple algorithms of
Blum, Kalai and Kleinberg (WADS 2001).  The exact BKK algorithms are not
reproduced here (the WADS paper is not available offline); these baselines
fill the same role in the experiments: deterministic, feasible, reasonable,
and beatable by the paper's primal–dual approach on adversarial inputs.

* :class:`KeepExpensive` — always admit the newcomer, then evict the cheapest
  conflicting requests until feasible.  On unit costs this behaves like a
  "keep the latest" rule; on weighted inputs it protects expensive requests
  (a ``c+1``-flavoured policy).
* :class:`GreedySwap` — admit the newcomer only if that is locally cheaper
  than rejecting it: the newcomer is compared against the cheapest eviction
  bundle that would make room for it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.protocols import OnlineAdmissionAlgorithm
from repro.instances.admission import AdmissionInstance
from repro.instances.request import Decision, EdgeId, Request

__all__ = ["KeepExpensive", "GreedySwap"]


class KeepExpensive(OnlineAdmissionAlgorithm):
    """Admit every request, then evict the cheapest conflicting ones.

    When an edge exceeds its capacity after admitting the newcomer, accepted
    requests through that edge are preempted in increasing cost order until
    the edge fits again.  The newcomer itself is also a candidate for
    immediate eviction (so on unit costs the policy does not thrash).
    """

    def __init__(self, capacities: Mapping[EdgeId, int], name: Optional[str] = None):
        super().__init__(capacities, name=name or "KeepExpensive")

    def process(self, request: Request) -> Decision:
        """Admit, then restore feasibility cheapest-first."""
        self._register_arrival(request)
        decision = self._accept(request)
        arriving_evicted = False
        for edge in request.ordered_edges:
            while self._load[edge] > self._capacities[edge]:
                on_edge = [
                    (req.cost, rid)
                    for rid, req in self._accepted.items()
                    if edge in req.edges
                ]
                on_edge.sort()
                victim_cost, victim = on_edge[0]
                self._preempt(victim, at_request=request.request_id)
                if victim == request.request_id:
                    arriving_evicted = True
                    break
            if arriving_evicted:
                break
        return decision

    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "KeepExpensive":
        """Construct the baseline for a concrete instance."""
        return cls(instance.capacities, **kwargs)


class GreedySwap(OnlineAdmissionAlgorithm):
    """Admit the newcomer only if evicting cheaper requests pays off locally.

    For every over-capacity edge the policy finds the cheapest accepted
    requests whose eviction would make room; if the total eviction cost over
    all edges is below the newcomer's cost, the evictions are performed and
    the newcomer is admitted, otherwise the newcomer is rejected.  This is the
    "local exchange" heuristic a practitioner would write first.
    """

    def __init__(self, capacities: Mapping[EdgeId, int], name: Optional[str] = None):
        super().__init__(capacities, name=name or "GreedySwap")

    def _eviction_plan(self, request: Request) -> Optional[Tuple[float, List[int]]]:
        """Cheapest eviction bundle making room for ``request`` (None if impossible)."""
        to_evict: Dict[int, float] = {}
        for edge in request.ordered_edges:
            overflow = self._load[edge] + 1 - self._capacities[edge]
            # Evictions already planned for other edges also relieve this one.
            overflow -= sum(1 for rid in to_evict if edge in self._accepted[rid].edges)
            if overflow <= 0:
                continue
            candidates = sorted(
                (
                    (req.cost, rid)
                    for rid, req in self._accepted.items()
                    if edge in req.edges and rid not in to_evict
                ),
            )
            if len(candidates) < overflow:
                return None
            for cost, rid in candidates[:overflow]:
                to_evict[rid] = cost
        return (sum(to_evict.values()), list(to_evict))

    def process(self, request: Request) -> Decision:
        """Accept directly, swap if profitable, reject otherwise."""
        self._register_arrival(request)
        if self.can_accept(request):
            return self._accept(request)
        plan = self._eviction_plan(request)
        if plan is None:
            return self._reject(request)
        eviction_cost, victims = plan
        if eviction_cost < request.cost:
            for rid in victims:
                self._preempt(rid, at_request=request.request_id)
            return self._accept(request)
        return self._reject(request)

    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "GreedySwap":
        """Construct the baseline for a concrete instance."""
        return cls(instance.capacities, **kwargs)
