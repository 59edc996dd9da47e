"""Threshold-preemption baseline (an ``O(sqrt m)``-flavoured deterministic rule).

Blum, Kalai and Kleinberg's ``O(sqrt m)``-competitive algorithm is built around
the idea that a request should only be preempted in favour of sufficiently
more valuable traffic, with the threshold tied to the instance size.  The
original construction is not available offline, so this is a stand-in:
:class:`ThresholdPreemption` reconstructs the *style*: an accepted
request is preempted only when the arriving request is at least
``threshold_factor`` times as expensive, with ``threshold_factor`` defaulting
to ``sqrt(m)``.

The point of carrying this baseline is the comparison shape in experiment E8:
deterministic threshold rules pay a polynomial factor on adversarial inputs
where the paper's randomized primal–dual algorithm pays a polylogarithmic one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.protocols import OnlineAdmissionAlgorithm
from repro.instances.admission import AdmissionInstance
from repro.instances.request import Decision, EdgeId, Request

__all__ = ["ThresholdPreemption"]


class ThresholdPreemption(OnlineAdmissionAlgorithm):
    """Preempt an accepted request only for a much more expensive newcomer.

    Parameters
    ----------
    capacities:
        Edge-capacity mapping.
    threshold_factor:
        The newcomer must cost at least ``threshold_factor`` times the
        candidate victim to justify preempting it.  Defaults to ``sqrt(m)``.
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        threshold_factor: Optional[float] = None,
        name: Optional[str] = None,
    ):
        super().__init__(capacities, name=name or "ThresholdPreemption")
        if threshold_factor is None:
            threshold_factor = math.sqrt(max(len(self._capacities), 1))
        if threshold_factor < 1.0:
            raise ValueError("threshold_factor must be >= 1")
        self.threshold_factor = float(threshold_factor)

    def _cheap_victims(self, request: Request) -> Optional[List[int]]:
        """Victims (cheapest-first) that make room, or None if some edge cannot be cleared."""
        victims: Dict[int, float] = {}
        for edge in request.ordered_edges:
            overflow = self._load[edge] + 1 - self._capacities[edge]
            overflow -= sum(1 for rid in victims if edge in self._accepted[rid].edges)
            if overflow <= 0:
                continue
            candidates: List[Tuple[float, int]] = sorted(
                (req.cost, rid)
                for rid, req in self._accepted.items()
                if edge in req.edges and rid not in victims
            )
            eligible = [
                (cost, rid)
                for cost, rid in candidates
                if request.cost >= self.threshold_factor * cost
            ]
            if len(eligible) < overflow:
                return None
            for cost, rid in eligible[:overflow]:
                victims[rid] = cost
        return list(victims)

    def process(self, request: Request) -> Decision:
        """Accept if it fits; otherwise preempt only much cheaper requests."""
        self._register_arrival(request)
        if self.can_accept(request):
            return self._accept(request)
        victims = self._cheap_victims(request)
        if victims is None:
            return self._reject(request)
        for rid in victims:
            self._preempt(rid, at_request=request.request_id)
        return self._accept(request)

    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "ThresholdPreemption":
        """Construct the baseline for a concrete instance."""
        return cls(instance.capacities, **kwargs)
