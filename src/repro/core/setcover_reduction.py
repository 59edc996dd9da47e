"""Reduction from online set cover with repetitions to admission control (Section 4).

Construction (paper, Section 4): given a set system with ``n`` elements and
``m`` sets,

* the admission-control graph has one edge ``e_j`` per element ``j`` whose
  capacity equals the number of sets containing ``j``;
* **phase 1**: before any element arrives, one request per set ``S`` is issued
  occupying the edges ``{e_j : j in S}`` with cost ``c_S``.  No edge is over
  capacity after phase 1, so an online algorithm accepts all of them;
* **phase 2**: every arrival of element ``j`` issues a request consisting of
  the single edge ``e_j``.  Accepting it forces the admission algorithm to
  reject one more request through ``e_j``, and (as the paper argues) it never
  helps to reject phase-2 requests, so the rejected requests are phase-1
  requests — i.e. sets.  The rejected sets always form a feasible multi-cover
  of the arrivals.

The classes below provide the reduction both ways:

* :func:`admission_instance_from_setcover` materialises the full admission
  instance (phase 1 + phase 2) for offline analysis;
* :class:`OnlineSetCoverViaAdmissionControl` wraps any admission-control
  algorithm behind the :class:`~repro.core.protocols.OnlineSetCoverAlgorithm`
  interface, yielding the paper's ``O(log m log n)`` (unweighted) /
  ``O(log^2(mn))`` (weighted) randomized online set cover with repetitions.

Phase-2 requests are tagged ``"element"`` and the admission algorithms treat
that tag as *forced acceptance* (the ``R_big`` code path), which realises the
paper's assumption that only phase-1 requests are ever rejected.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from repro.core.doubling import DoublingAdmissionControl
from repro.core.protocols import OnlineAdmissionAlgorithm, OnlineSetCoverAlgorithm
from repro.core.randomized import RandomizedAdmissionControl
from repro.engine.backends import BackendSpec
from repro.engine.registry import SETCOVER_ALGORITHMS
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_sequence
from repro.instances.request import EdgeId, Request, RequestSequence
from repro.instances.setcover import ElementId, SetCoverInstance, SetId, SetSystem
from repro.utils.rng import RandomState

__all__ = [
    "PHASE1_TAG",
    "PHASE2_TAG",
    "element_edge",
    "build_reduction",
    "admission_instance_from_setcover",
    "OnlineSetCoverViaAdmissionControl",
]

PHASE1_TAG = "set"
PHASE2_TAG = "element"


def element_edge(element: ElementId) -> Tuple[str, ElementId]:
    """Edge id used for element ``j`` in the reduction (``("elem", j)``)."""
    return ("elem", element)


def build_reduction(system: SetSystem) -> Tuple[Dict[EdgeId, int], List[Request], Dict[int, SetId]]:
    """Build the static part of the reduction.

    Returns
    -------
    capacities:
        One edge per element with capacity equal to the element's degree.
    phase1_requests:
        One request per set (ids ``0 .. m-1``), occupying the edges of its
        elements, with the set's cost, tagged :data:`PHASE1_TAG`.
    request_to_set:
        Mapping from phase-1 request id back to the set id it encodes.
    """
    capacities: Dict[EdgeId, int] = {}
    for element in system.elements():
        degree = system.degree(element)
        if degree == 0:
            # An element no set contains can never be requested feasibly; give
            # the edge capacity 1 so the admission instance stays well formed.
            degree = 1
        capacities[element_edge(element)] = degree

    phase1_requests: List[Request] = []
    request_to_set: Dict[int, SetId] = {}
    for index, set_id in enumerate(system.set_ids()):
        edges = frozenset(element_edge(j) for j in system.members(set_id))
        cost = system.cost(set_id)
        # The paper allows zero-cost sets; requests need positive costs, so
        # clamp to a negligible epsilon (buying a free set is always fine).
        cost = max(cost, 1e-12)
        phase1_requests.append(Request(index, edges, cost, tag=PHASE1_TAG))
        request_to_set[index] = set_id
    return capacities, phase1_requests, request_to_set


def admission_instance_from_setcover(instance: SetCoverInstance) -> AdmissionInstance:
    """Materialise the full reduced admission instance (phase 1 then phase 2).

    Phase-2 requests get ids ``m, m+1, ...`` in arrival order and cost equal to
    the most expensive set plus one (they are never worth rejecting when a
    feasible cover exists, mirroring the paper's argument).
    """
    system = instance.system
    capacities, phase1, _ = build_reduction(system)
    phase2: List[Request] = []
    big_cost = max(system.costs().values(), default=1.0) + 1.0
    for offset, element in enumerate(instance.arrivals):
        request_id = len(phase1) + offset
        phase2.append(
            Request(request_id, frozenset({element_edge(element)}), big_cost, tag=PHASE2_TAG)
        )
    requests = RequestSequence(list(phase1) + phase2)
    return AdmissionInstance(capacities, requests, name=f"reduced:{instance.name}")


AdmissionFactory = Callable[[Mapping[EdgeId, int]], OnlineAdmissionAlgorithm]


class OnlineSetCoverViaAdmissionControl(OnlineSetCoverAlgorithm):
    """Online set cover with repetitions solved through the Section-4 reduction.

    Parameters
    ----------
    system:
        The set system (known in advance).
    algorithm:
        Which admission-control algorithm to run on the reduced instance:
        ``"randomized"`` (default, Section 3), ``"doubling"`` (randomized with
        guess-and-double), or a callable ``capacities -> algorithm`` for full
        control (it must honour the ``force_accept_tags={"element"}``
        convention itself in that case).
    random_state:
        Seed or generator for the randomized admission algorithm.
    rounding_constant:
        Forwarded to the randomized admission algorithm.
    weighted:
        ``None`` (default) infers from the set costs; ``True`` forces the
        weighted configuration.
    backend:
        Weight-mechanism backend forwarded to the admission algorithm
        (``"python"``, ``"numpy"``, an ``EngineConfig``, or ``None``).
    """

    def __init__(
        self,
        system: SetSystem,
        *,
        algorithm: Union[str, AdmissionFactory] = "randomized",
        random_state: RandomState = None,
        rounding_constant: Optional[float] = None,
        weighted: Optional[bool] = None,
        backend: BackendSpec = None,
        name: Optional[str] = None,
    ):
        super().__init__(system, name=name or "SetCoverViaAdmission")
        self._capacities, phase1, self._request_to_set = build_reduction(system)
        if weighted is None:
            weighted = not system.is_unit_cost()
        self.weighted = bool(weighted)

        if callable(algorithm):
            self._admission: OnlineAdmissionAlgorithm = algorithm(self._capacities)
        elif algorithm == "randomized":
            self._admission = RandomizedAdmissionControl(
                self._capacities,
                weighted=self.weighted,
                rounding_constant=rounding_constant,
                random_state=random_state,
                force_accept_tags={PHASE2_TAG},
                backend=backend,
            )
        elif algorithm == "doubling":
            self._admission = DoublingAdmissionControl(
                self._capacities,
                weighted=self.weighted,
                rounding_constant=rounding_constant,
                random_state=random_state,
                force_accept_tags={PHASE2_TAG},
                backend=backend,
            )
        else:
            raise ValueError(f"unknown algorithm spec {algorithm!r}")

        # Phase-2 requests always cost more than the most expensive set, so
        # rejecting them never pays off; the value is static, compute it once.
        self._phase2_cost = max(system.costs().values(), default=1.0) + 1.0

        # Phase 1: feed every set request; they all fit, so they are accepted.
        # The block is known up front, so compile it once and hand it to the
        # admission algorithm's compiled range.
        compiled = compile_sequence(
            RequestSequence(phase1), self._capacities, name="reduction-phase1"
        )
        self._admission.process_compiled_range(compiled, 0, compiled.num_requests)
        self._next_request_id = len(phase1)
        self._known_rejections: set = set()
        self._sync_purchases()

    # -- internals ---------------------------------------------------------------------
    def _sync_purchases(self) -> FrozenSet[SetId]:
        """Purchase every set whose phase-1 request is now rejected or preempted."""
        rejected = self._admission.rejected_ids() | self._admission.preempted_ids()
        newly = []
        for request_id in rejected - self._known_rejections:
            self._known_rejections.add(request_id)
            set_id = self._request_to_set.get(request_id)
            if set_id is not None and self._purchase(set_id):
                newly.append(set_id)
        return frozenset(newly)

    # -- online interface -----------------------------------------------------------------
    def process_element(self, element: ElementId) -> FrozenSet[SetId]:
        """Issue the phase-2 request for ``element`` and collect new purchases."""
        self._register_arrival(element)
        request = Request(
            self._next_request_id,
            frozenset({element_edge(element)}),
            self._phase2_cost,
            tag=PHASE2_TAG,
        )
        self._next_request_id += 1
        self._admission.process(request)
        return self._sync_purchases()

    # -- reporting -------------------------------------------------------------------------
    @property
    def admission_algorithm(self) -> OnlineAdmissionAlgorithm:
        """The underlying admission-control algorithm (read-only use recommended)."""
        return self._admission

    def extra_metrics(self) -> Dict[str, float]:
        """Diagnostics merged into the :class:`~repro.core.protocols.SetCoverResult`."""
        metrics: Dict[str, float] = {
            "admission_rejection_cost": self._admission.rejection_cost(),
            "admission_feasible": self._admission.is_feasible(),
        }
        inner_extra = self._admission.extra_metrics()
        for key, value in inner_extra.items():
            metrics[f"admission_{key}"] = value
        return metrics

    @classmethod
    def for_instance(cls, instance: SetCoverInstance, **kwargs) -> "OnlineSetCoverViaAdmissionControl":
        """Construct the reduction solver for a concrete instance's set system."""
        return cls(instance.system, **kwargs)


@SETCOVER_ALGORITHMS.register("reduction")
def _build_reduction(instance, *, random_state=None, backend=None, **kwargs):
    """Registry builder: online set cover via the Section-4 admission reduction."""
    return OnlineSetCoverViaAdmissionControl.for_instance(
        instance, random_state=random_state, backend=backend, **kwargs
    )
