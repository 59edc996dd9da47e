"""Common interfaces and result containers for online algorithms.

Two algorithm families live in this library:

* **Admission control** (paper Sections 2–3): algorithms receive
  :class:`~repro.instances.request.Request` objects one at a time and must
  accept, reject, or later preempt them while keeping every edge within its
  capacity.  They all derive from :class:`OnlineAdmissionAlgorithm`.
* **Online set cover with repetitions** (paper Sections 4–5): algorithms
  receive element arrivals one at a time and must keep every element covered
  by as many distinct sets as it has arrived (or a ``(1 - eps)`` fraction for
  the bicriteria algorithm).  They derive from :class:`OnlineSetCoverAlgorithm`.

Keeping the interfaces identical across the paper's algorithms and the
baselines makes every experiment a drop-in comparison.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set

from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import CompiledInstance
from repro.instances.request import Decision, DecisionKind, EdgeId, Request
from repro.instances.setcover import ElementId, SetCoverInstance, SetId, SetSystem

__all__ = [
    "OnlineAdmissionAlgorithm",
    "OnlineSetCoverAlgorithm",
    "AdmissionResult",
    "SetCoverResult",
    "run_admission",
    "run_setcover",
    "InfeasibleArrivalError",
]


class InfeasibleArrivalError(RuntimeError):
    """Raised when an arrival makes the instance infeasible even offline.

    Example: an element is requested more times than the number of sets that
    contain it, so no algorithm (online or offline) could satisfy the demand.
    """


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


@dataclass
class AdmissionResult:
    """Summary of one full online admission-control run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the run.
    accepted_ids / rejected_ids / preempted_ids:
        Final partition of the request ids.  ``rejected_ids`` holds requests
        refused on arrival; ``preempted_ids`` holds requests accepted first and
        evicted later.  Both count towards the objective.
    rejection_cost:
        Total cost of rejected plus preempted requests — the paper's objective.
    feasible:
        Whether the final accepted set respects every edge capacity.
    decisions:
        Chronological decision log (accept / reject / preempt events).
    extra:
        Algorithm-specific diagnostics (fractional cost, number of weight
        augmentations, phase count of the doubling wrapper, ...).
    """

    algorithm: str
    accepted_ids: FrozenSet[int]
    rejected_ids: FrozenSet[int]
    preempted_ids: FrozenSet[int]
    rejection_cost: float
    feasible: bool
    decisions: List[Decision] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_rejections(self) -> int:
        """Number of requests rejected or preempted."""
        return len(self.rejected_ids) + len(self.preempted_ids)

    def all_rejected_ids(self) -> FrozenSet[int]:
        """Union of rejections and preemptions."""
        return self.rejected_ids | self.preempted_ids


class OnlineAdmissionAlgorithm(ABC):
    """Base class for online admission-control algorithms.

    Subclasses implement :meth:`process`.  The base class maintains the
    accepted/rejected/preempted bookkeeping, the per-edge load of currently
    accepted requests, and the decision log, through the protected helpers
    ``_accept``, ``_reject`` and ``_preempt``.

    Parameters
    ----------
    capacities:
        Mapping from edge id to integer capacity (the static part of the
        instance; known to the online algorithm up front, as in the paper).
    name:
        Optional display name (defaults to the class name).
    """

    def __init__(self, capacities: Mapping[EdgeId, int], name: Optional[str] = None):
        self._capacities: Dict[EdgeId, int] = {e: int(c) for e, c in capacities.items()}
        for edge, cap in self._capacities.items():
            if cap < 1:
                raise ValueError(f"capacity of edge {edge!r} must be >= 1, got {cap}")
        self.name = name or type(self).__name__
        self._accepted: Dict[int, Request] = {}
        self._rejected: Dict[int, Request] = {}
        self._preempted: Dict[int, Request] = {}
        self._decisions: List[Decision] = []
        self._load: Dict[EdgeId, int] = {e: 0 for e in self._capacities}
        self._seen: Set[int] = set()

    # -- subclass API ---------------------------------------------------------
    @abstractmethod
    def process(self, request: Request) -> Decision:
        """Handle one arriving request and return the decision for it."""

    # -- bookkeeping helpers (used by subclasses) -------------------------------
    def check_arrival(self, request: Request) -> None:
        """Raise ``ValueError`` for an arrival :meth:`process` must refuse.

        Read-only: it rejects a duplicate id and an edge outside the
        capacity map.  Subclasses add their own checks.
        """
        if request.request_id in self._seen:
            raise ValueError(f"request id {request.request_id} was already processed")
        # Runs once per arrival: a known path builds no list.
        capacities = self._capacities
        for edge in request.ordered_edges:
            if edge not in capacities:
                unknown = [e for e in request.ordered_edges if e not in capacities]
                raise ValueError(
                    f"request {request.request_id} uses unknown edges {unknown[:3]!r}"
                )

    def _register_arrival(self, request: Request) -> None:
        """Record that ``request`` arrived, once :meth:`check_arrival` passes."""
        self.check_arrival(request)
        self._seen.add(request.request_id)

    def _accept(self, request: Request) -> Decision:
        """Accept ``request`` and add its load to every edge on its path."""
        self._accepted[request.request_id] = request
        for e in request.ordered_edges:
            self._load[e] += 1
        decision = Decision(request.request_id, DecisionKind.ACCEPT)
        self._decisions.append(decision)
        return decision

    def _reject(self, request: Request) -> Decision:
        """Reject ``request`` on arrival."""
        self._rejected[request.request_id] = request
        decision = Decision(request.request_id, DecisionKind.REJECT)
        self._decisions.append(decision)
        return decision

    def _preempt(self, request_id: int, at_request: Optional[int] = None) -> Decision:
        """Evict a previously accepted request (reject after acceptance)."""
        request = self._accepted.pop(request_id)
        for e in request.ordered_edges:
            self._load[e] -= 1
        self._preempted[request_id] = request
        decision = Decision(request_id, DecisionKind.PREEMPT, at_request=at_request)
        self._decisions.append(decision)
        return decision

    # -- state queries -----------------------------------------------------------
    def was_processed(self, request_id: int) -> bool:
        """True if a request with this id has already arrived (read-only)."""
        return request_id in self._seen

    def capacities(self) -> Dict[EdgeId, int]:
        """Copy of the (original) capacity map the algorithm was built with."""
        return dict(self._capacities)

    def load(self, edge: EdgeId) -> int:
        """Number of currently accepted requests whose paths contain ``edge``."""
        return self._load[edge]

    def residual_capacity(self, edge: EdgeId) -> int:
        """Remaining capacity on ``edge`` given the currently accepted requests."""
        return self._capacities[edge] - self._load[edge]

    def can_accept(self, request: Request) -> bool:
        """True if accepting ``request`` now keeps every edge within capacity."""
        return all(self._load[e] < self._capacities[e] for e in request.ordered_edges)

    def accepted_ids(self) -> FrozenSet[int]:
        """Ids of requests currently accepted (never rejected or preempted)."""
        return frozenset(self._accepted)

    def rejected_ids(self) -> FrozenSet[int]:
        """Ids rejected on arrival."""
        return frozenset(self._rejected)

    def preempted_ids(self) -> FrozenSet[int]:
        """Ids accepted first and preempted later."""
        return frozenset(self._preempted)

    def decisions(self) -> List[Decision]:
        """Chronological decision log."""
        return list(self._decisions)

    def decisions_since(self, start: int) -> List[Decision]:
        """Decisions appended at or after index ``start`` (a cheap tail read).

        Long-lived consumers (the streaming session) poll the log after every
        micro-batch; copying only the tail keeps that O(batch) instead of
        O(run length).
        """
        return self._decisions[start:]

    def rejection_cost(self) -> float:
        """Total cost of rejected plus preempted requests (the objective)."""
        return sum(r.cost for r in self._rejected.values()) + sum(
            r.cost for r in self._preempted.values()
        )

    def is_feasible(self) -> bool:
        """True if the currently accepted set respects every capacity."""
        return all(self._load[e] <= self._capacities[e] for e in self._capacities)

    def extra_metrics(self) -> Dict[str, Any]:
        """Algorithm-specific diagnostics merged into :class:`AdmissionResult`."""
        return {}

    def result(self) -> AdmissionResult:
        """Snapshot the current state into an :class:`AdmissionResult`."""
        return AdmissionResult(
            algorithm=self.name,
            accepted_ids=self.accepted_ids(),
            rejected_ids=self.rejected_ids(),
            preempted_ids=self.preempted_ids(),
            rejection_cost=self.rejection_cost(),
            feasible=self.is_feasible(),
            decisions=self.decisions(),
            extra=self.extra_metrics(),
        )


def run_admission(
    algorithm: OnlineAdmissionAlgorithm,
    instance: AdmissionInstance,
    *,
    compiled: Optional["CompiledInstance"] = None,
    vectorized: bool = True,
) -> AdmissionResult:
    """Feed every request of ``instance`` to ``algorithm`` and return the result.

    When a :class:`~repro.instances.compiled.CompiledInstance` view of the
    same instance is supplied and the algorithm exposes
    ``process_compiled_range`` (the whole-trace executor; ``vectorized=False``
    is the per-arrival escape hatch) or ``process_indexed``, arrivals stream
    through the array-native fast path; otherwise the classic per-request
    path is used.  Results are identical either way.
    """
    if compiled is not None and hasattr(algorithm, "process_compiled_range"):
        algorithm.process_compiled_range(
            compiled, 0, compiled.num_requests, vectorized=vectorized
        )
    elif compiled is not None and hasattr(algorithm, "process_indexed"):
        for i in range(compiled.num_requests):
            algorithm.process_indexed(compiled, i)
    else:
        for request in instance.requests:
            algorithm.process(request)
    return algorithm.result()


# ---------------------------------------------------------------------------
# Online set cover with repetitions
# ---------------------------------------------------------------------------


@dataclass
class SetCoverResult:
    """Summary of one full online set-cover run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm.
    chosen_sets:
        The sets purchased over the whole run.
    cost:
        Total cost of the purchased sets (the objective).
    coverage:
        Final multiplicity of coverage per element (number of chosen sets
        containing it).
    demands:
        Final demand per element (number of arrivals).
    satisfied:
        True if ``coverage[j] >= demands[j]`` for every element that arrived.
        For the bicriteria algorithm this may legitimately be False while
        ``bicriteria_satisfied`` (in ``extra``) is True.
    extra:
        Algorithm-specific diagnostics.
    """

    algorithm: str
    chosen_sets: FrozenSet[SetId]
    cost: float
    coverage: Dict[ElementId, int]
    demands: Dict[ElementId, int]
    satisfied: bool
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_sets(self) -> int:
        """Number of purchased sets."""
        return len(self.chosen_sets)


class OnlineSetCoverAlgorithm(ABC):
    """Base class for online set cover with repetitions algorithms.

    Subclasses implement :meth:`process_element`, returning the (possibly
    empty) collection of sets newly purchased in response to the arrival.  The
    base class maintains the purchased collection, the per-element demand
    counts and the coverage counts.
    """

    def __init__(self, system: SetSystem, name: Optional[str] = None):
        self.system = system
        self.name = name or type(self).__name__
        self._chosen: Set[SetId] = set()
        self._demands: Dict[ElementId, int] = {}
        self._coverage: Dict[ElementId, int] = {e: 0 for e in system.elements()}
        self._cost = 0.0

    # -- subclass API ---------------------------------------------------------
    @abstractmethod
    def process_element(self, element: ElementId) -> FrozenSet[SetId]:
        """Handle one element arrival; return the sets purchased because of it."""

    # -- bookkeeping helpers -----------------------------------------------------
    def _register_arrival(self, element: ElementId) -> int:
        """Record the arrival and return the element's updated demand ``k``."""
        if element not in self._coverage:
            raise ValueError(f"element {element!r} is not in the ground set")
        self._demands[element] = self._demands.get(element, 0) + 1
        return self._demands[element]

    def _purchase(self, set_id: SetId) -> bool:
        """Add ``set_id`` to the cover; returns False if it was already chosen."""
        if set_id in self._chosen:
            return False
        self._chosen.add(set_id)
        self._cost += self.system.cost(set_id)
        for element in self.system.members(set_id):
            self._coverage[element] += 1
        return True

    # -- state queries -------------------------------------------------------------
    def chosen_sets(self) -> FrozenSet[SetId]:
        """Sets purchased so far."""
        return frozenset(self._chosen)

    def cost(self) -> float:
        """Total cost of the purchased sets."""
        return self._cost

    def demand(self, element: ElementId) -> int:
        """Number of times ``element`` has arrived so far."""
        return self._demands.get(element, 0)

    def coverage(self, element: ElementId) -> int:
        """Number of purchased sets containing ``element``."""
        return self._coverage[element]

    def demands(self) -> Dict[ElementId, int]:
        """Copy of the demand counts."""
        return dict(self._demands)

    def coverage_map(self) -> Dict[ElementId, int]:
        """Copy of the coverage counts."""
        return dict(self._coverage)

    def is_satisfied(self) -> bool:
        """True if every arrived element is covered at least its demand."""
        return all(self._coverage[e] >= k for e, k in self._demands.items())

    def extra_metrics(self) -> Dict[str, Any]:
        """Algorithm-specific diagnostics merged into :class:`SetCoverResult`."""
        return {}

    def result(self) -> SetCoverResult:
        """Snapshot the current state into a :class:`SetCoverResult`."""
        return SetCoverResult(
            algorithm=self.name,
            chosen_sets=self.chosen_sets(),
            cost=self.cost(),
            coverage=self.coverage_map(),
            demands=self.demands(),
            satisfied=self.is_satisfied(),
            extra=self.extra_metrics(),
        )


def run_setcover(algorithm: OnlineSetCoverAlgorithm, instance: SetCoverInstance) -> SetCoverResult:
    """Feed every arrival of ``instance`` to ``algorithm`` and return the result."""
    for element in instance.arrivals:
        algorithm.process_element(element)
    return algorithm.result()
