"""Guess-and-double estimation of the optimal cost ``alpha`` (paper, Section 2).

The fractional and randomized algorithms are parameterised by a guess
``alpha`` of the optimal rejection cost, used only for the ``R_big`` /
``R_small`` cost classing and the cost normalisation.  Section 2 removes the
assumption that ``alpha`` is known with the classic doubling trick:

* until some edge is requested beyond its capacity nothing has to be rejected,
  so no guess is needed;
* at the first forced rejection on an edge ``e`` the guess is initialised to
  the cheapest request seen on ``e``;
* whenever the online cost exceeds ``Theta(alpha * log(mc))`` the guess is
  doubled and the algorithm continues (the fractions already rejected are
  "forgotten", i.e. their cost has been paid; the geometric growth of the
  guesses means the total cost across phases is at most twice the cost of the
  final phase).

The wrappers below implement that scheme around
:class:`~repro.core.fractional.FractionalAdmissionControl` and
:class:`~repro.core.randomized.RandomizedAdmissionControl`, as one shared
class with a thin subclass per algorithm.  One simplification: requests
registered during earlier phases keep the normalised costs they were
registered with — re-normalising them online is impossible without rewriting
history, and the effect is a constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.core.fractional import FractionalAdmissionControl, FractionalDecision, FractionalRunResult
from repro.core.randomized import RandomizedAdmissionControl
from repro.core.protocols import AdmissionResult
from repro.engine.backends import BackendSpec
from repro.engine.registry import ADMISSION_ALGORITHMS
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import CompiledInstance
from repro.instances.request import Decision, EdgeId, Request
from repro.instances.serialize import decode_edge_id, encode_edge_id
from repro.utils.mathx import log2_guarded
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive

__all__ = ["AlphaSchedule", "DoublingFractionalAdmissionControl", "DoublingAdmissionControl"]

#: What one arrival returns: the wrapped algorithm's own decision.
_Decision = Union[Decision, FractionalDecision]


@dataclass
class AlphaSchedule:
    """The guess-and-double bookkeeping shared by both wrappers.

    Attributes
    ----------
    threshold_factor:
        The online cost may reach ``threshold_factor * alpha * log2(mc)``
        before the guess is doubled (the ``Theta`` constant of the paper).
    alpha:
        Current guess (``None`` until the first forced rejection).
    phase_alphas:
        Every guess used so far, in order (diagnostics for experiment E9).
    """

    m: int
    c: int
    threshold_factor: float = 4.0
    alpha: Optional[float] = None
    phase_alphas: List[float] = field(default_factory=list)
    #: per-edge request count and cheapest cost, used to initialise the guess.
    _edge_count: Dict[EdgeId, int] = field(default_factory=dict)
    _edge_min_cost: Dict[EdgeId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # With a factor <= 0 every positive cost exceeds the limit, so
        # maybe_double never returns (negative) or drives alpha to inf (zero);
        # NaN would silently disable doubling.
        self.threshold_factor = check_positive(self.threshold_factor, "threshold_factor")

    def cost_limit(self) -> float:
        """Online cost allowed under the current guess (infinite before the first guess)."""
        if self.alpha is None:
            return float("inf")
        return self.threshold_factor * self.alpha * log2_guarded(self.m * max(self.c, 1))

    def observe_request(self, request: Request, capacities: Mapping[EdgeId, int]) -> bool:
        """Record an arrival; returns True if it initialises the first guess.

        The first guess is taken at the first arrival that pushes some edge
        beyond its capacity and equals the cheapest cost seen on that edge
        (including the arriving request), as prescribed in Section 2.
        """
        initialised = False
        for edge in request.ordered_edges:
            self._edge_count[edge] = self._edge_count.get(edge, 0) + 1
            current_min = self._edge_min_cost.get(edge, float("inf"))
            self._edge_min_cost[edge] = min(current_min, request.cost)
            if self.alpha is None and self._edge_count[edge] > capacities[edge]:
                self.alpha = self._edge_min_cost[edge]
                self.phase_alphas.append(self.alpha)
                initialised = True
        return initialised

    def maybe_double(self, online_cost: float) -> bool:
        """Double the guess while the online cost exceeds the allowed limit.

        Returns True if at least one doubling happened.
        """
        if self.alpha is None:
            return False
        doubled = False
        while online_cost > self.cost_limit():
            self.alpha *= 2.0
            self.phase_alphas.append(self.alpha)
            doubled = True
        return doubled

    @property
    def num_phases(self) -> int:
        """Number of guesses used so far (0 before the first forced rejection)."""
        return len(self.phase_alphas)

    # -- checkpoint state ---------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the guess-and-double bookkeeping.

        The two per-edge maps share their keys and key order (every arrival
        updates both for each of its edges), so they are stored as one
        ``edges`` column beside the ``edge_count`` and ``edge_min_cost``
        columns.
        """
        return {
            "alpha": self.alpha,
            "phase_alphas": [float(a) for a in self.phase_alphas],
            "edges": [encode_edge_id(e) for e in self._edge_count],
            "edge_count": [int(n) for n in self._edge_count.values()],
            "edge_min_cost": [float(c) for c in self._edge_min_cost.values()],
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot."""
        edges = [decode_edge_id(e) for e in state["edges"]]
        counts = [int(n) for n in state["edge_count"]]
        min_costs = [float(c) for c in state["edge_min_cost"]]
        if not len(edges) == len(counts) == len(min_costs):
            raise ValueError("checkpoint per-edge columns disagree in length")
        self.alpha = None if state["alpha"] is None else float(state["alpha"])
        self.phase_alphas = [float(a) for a in state["phase_alphas"]]
        self._edge_count = dict(zip(edges, counts))
        self._edge_min_cost = dict(zip(edges, min_costs))


class _GuessAndDouble:
    """The guess-and-double wrapper both algorithms share.

    It owns the :class:`AlphaSchedule` and the one step every arrival takes,
    whichever entry point it comes through: the wrapped algorithm's
    read-only checks (for a compiled arrival, its interning's too), so an
    arrival the algorithm refuses never reaches the schedule; the schedule
    counts the arrival and may take the first guess; the wrapped algorithm
    decides; the guess doubles while the online cost exceeds its limit.
    Every ``process*`` entry point of the wrapped algorithm is defined here
    or in a subclass, so none is reached past the schedule.
    """

    #: Checkpoint ``kind`` of the wrapper's exported state (set by each subclass).
    _KIND = ""
    #: Read-only constructor copy used for the schedule's m/c parameters;
    #: restore rebuilds the wrapper from the same capacities (RPR004 allowlist).
    _LINT_STATE_EXEMPT = frozenset({"_capacities"})

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        inner: Union[FractionalAdmissionControl, RandomizedAdmissionControl],
        threshold_factor: float,
        name: Optional[str],
    ):
        self._capacities = {e: int(c) for e, c in capacities.items()}
        self.name = name or type(self).__name__
        self._inner = inner
        self.schedule = AlphaSchedule(
            m=len(self._capacities),
            c=max(self._capacities.values()),
            threshold_factor=threshold_factor,
        )

    @property
    def inner(self) -> Union[FractionalAdmissionControl, RandomizedAdmissionControl]:
        """The wrapped algorithm."""
        return self._inner

    @property
    def alpha(self) -> Optional[float]:
        """Current guess of the optimal cost."""
        return self.schedule.alpha

    def check_arrival(self, request: Request) -> None:
        """The wrapped algorithm's read-only arrival checks (the schedule refuses nothing)."""
        self._inner.check_arrival(request)

    def process(self, request: Request) -> _Decision:
        """Process one request, updating the guess before and after."""
        return self._decide(request, None, 0)

    def process_indexed(self, compiled: CompiledInstance, i: int) -> _Decision:
        """Compiled fast path of :meth:`process` (same guess updates)."""
        return self._decide(compiled.request(i), compiled, i)

    def process_compiled_range(
        self, compiled: CompiledInstance, lo: int, hi: int, *, vectorized: bool = True
    ) -> None:
        """Process arrivals ``[lo, hi)`` of a compiled instance, one :meth:`process_indexed` each.

        The guess may change between any two arrivals, so this per-arrival
        loop is the wrapper's only path and ``vectorized`` changes nothing.
        """
        for i in range(lo, hi):
            self.process_indexed(compiled, i)

    def _decide(self, request: Request, compiled: Optional[CompiledInstance], i: int) -> _Decision:
        """Check, observe, decide and maybe double, for one arrival of either entry point."""
        inner = self._inner
        schedule = self.schedule
        inner.check_arrival(request)
        if compiled is not None:
            inner.check_compiled(compiled)
        if schedule.observe_request(request, self._capacities):
            inner.update_alpha(schedule.alpha)
        if compiled is None:
            decision = inner.process(request)
        else:
            decision = inner.process_indexed(compiled, i)
        # maybe_double() ignores the cost until there is a guess, so skip reading
        # it (an O(n) pass) while there is none.
        if schedule.alpha is not None and schedule.maybe_double(inner.fractional_cost()):
            inner.update_alpha(schedule.alpha)
        return decision

    def fractional_cost(self) -> float:
        """Objective value of the wrapped algorithm's fractional solution."""
        return self._inner.fractional_cost()

    def decisions(self) -> List[_Decision]:
        """Chronological decisions of the wrapped algorithm."""
        return self._inner.decisions()

    def decisions_since(self, start: int) -> List[_Decision]:
        """Decisions appended at or after index ``start`` (a cheap tail read)."""
        return self._inner.decisions_since(start)

    def was_processed(self, request_id: int) -> bool:
        """True if a request with this id has already arrived (read-only)."""
        return self._inner.was_processed(request_id)

    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot: the wrapped algorithm plus the schedule."""
        return {
            "kind": self._KIND,
            "schedule": self.schedule.export_state(),
            "inner": self._inner.export_state(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this (fresh) wrapper."""
        if state.get("kind") != self._KIND:
            raise ValueError(f"not a {self._KIND} state: kind={state.get('kind')!r}")
        self.schedule.restore_state(state["schedule"])
        self._inner.restore_state(state["inner"])


class DoublingFractionalAdmissionControl(_GuessAndDouble):
    """Fractional algorithm with online estimation of ``alpha``.

    Mirrors the :class:`~repro.core.fractional.FractionalAdmissionControl`
    interface (``process`` / ``fractional_cost`` / ``run_result``) and manages
    the guess internally.
    """

    _KIND = "doubling-fractional"

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        *,
        threshold_factor: float = 4.0,
        force_accept_tags: Iterable[str] = (),
        unweighted: bool = False,
        backend: BackendSpec = None,
        name: Optional[str] = None,
    ):
        inner = FractionalAdmissionControl(
            capacities,
            alpha=None,
            force_accept_tags=force_accept_tags,
            unweighted=unweighted,
            backend=backend,
        )
        super().__init__(capacities, inner, threshold_factor, name)

    # The fractional algorithm's sequence entry points, run through this
    # wrapper's process, process_compiled_range and run_result.
    process_compiled_sequence = FractionalAdmissionControl.process_compiled_sequence
    process_sequence = FractionalAdmissionControl.process_sequence

    def fractions(self) -> Dict[int, float]:
        """Rejected fraction per request."""
        return self._inner.fractions()

    @property
    def num_augmentations(self) -> int:
        """Total weight augmentations of the wrapped algorithm."""
        return self._inner.num_augmentations

    def run_result(self) -> FractionalRunResult:
        """Run summary of the wrapped algorithm (alpha reflects the final guess)."""
        result = self._inner.run_result()
        result.alpha = self.schedule.alpha
        return result

    def check_invariants(self) -> List[str]:
        """Delegate to the wrapped algorithm's invariant checker."""
        return self._inner.check_invariants()

    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "DoublingFractionalAdmissionControl":
        """Construct the wrapper for a concrete instance."""
        return cls(instance.capacities, **FractionalAdmissionControl.instance_kwargs(instance, kwargs))


class DoublingAdmissionControl(_GuessAndDouble):
    """Randomized algorithm with online estimation of ``alpha``.

    Duck-types the :class:`~repro.core.protocols.OnlineAdmissionAlgorithm`
    interface, so it can be used anywhere the randomized algorithm can (in
    particular with :func:`~repro.core.protocols.run_admission`): the entry
    points are the wrapper's own, and state queries (``rejection_cost``,
    ``accepted_ids``, ...) are delegated to the inner algorithm.
    """

    _KIND = "doubling"

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        *,
        weighted: bool = True,
        threshold_factor: float = 4.0,
        rounding_constant: Optional[float] = None,
        random_state: RandomState = None,
        force_accept_tags: Iterable[str] = (),
        overload_guard: bool = False,
        backend: BackendSpec = None,
        name: Optional[str] = None,
    ):
        inner = RandomizedAdmissionControl(
            capacities,
            weighted=weighted,
            alpha=None,
            rounding_constant=rounding_constant,
            random_state=random_state,
            force_accept_tags=force_accept_tags,
            overload_guard=overload_guard,
            backend=backend,
            name=name,
        )
        super().__init__(capacities, inner, threshold_factor, name)

    def result(self) -> AdmissionResult:
        """Result of the wrapped algorithm, annotated with the doubling diagnostics."""
        result = self._inner.result()
        result.algorithm = self.name
        result.extra["alpha_final"] = self.schedule.alpha
        result.extra["alpha_phases"] = list(self.schedule.phase_alphas)
        result.extra["num_phases"] = self.schedule.num_phases
        return result

    def __getattr__(self, item):
        # Delegate state queries (rejection_cost, accepted_ids, ...) to the inner
        # algorithm.  Copy and unpickle look attributes up before ``__dict__``
        # is filled; without ``_inner`` there is nothing to delegate to.
        if item == "_inner":
            raise AttributeError(item)
        return getattr(self._inner, item)

    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "DoublingAdmissionControl":
        """Construct the wrapper for a concrete instance."""
        if "weighted" not in kwargs:
            kwargs["weighted"] = not instance.is_unit_cost()
        return cls(instance.capacities, **kwargs)


@ADMISSION_ALGORITHMS.register("doubling")
def _build_doubling(instance, *, random_state=None, backend=None, **kwargs):
    """Registry builder: randomized algorithm + guess-and-double alpha estimation."""
    return DoublingAdmissionControl.for_instance(
        instance, random_state=random_state, backend=backend, **kwargs
    )
