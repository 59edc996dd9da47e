"""The fractional online admission-control algorithm (paper, Section 2).

The algorithm maintains a fractional rejection ``f_i`` for every request and
guarantees that, for every edge, the total rejected fraction of the *alive*
requests covers the edge's excess.  Theorem 2 shows the resulting fractional
cost is ``O(log(mc))`` times the optimal fractional cost (``O(log c)`` in the
unweighted case).

Besides the weight mechanism itself (delegated to
:class:`~repro.engine.backends.WeightBackend`), Section 2 prescribes a
preprocessing step parameterised by a guess ``alpha`` of the optimal cost:

* requests with cost greater than ``2*alpha`` (the class ``R_big``) are
  accepted permanently and the capacities along their paths are decreased;
* requests with cost below ``alpha/(mc)`` (the class ``R_small``) are rejected
  immediately;
* the remaining costs are normalised so the minimum cost is 1 and the maximum
  is ``g <= 2mc``.

The class below implements both modes: with ``alpha`` given (full
preprocessing, as analysed in the paper) and without (``alpha=None`` — the raw
weight mechanism, useful as the shadow of the randomized algorithm in the
unweighted case and inside the guess-and-double wrapper of
:mod:`repro.core.doubling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.engine.backends import (
    ArrivalOutcome,
    BackendSpec,
    WeightBackend,
    make_weight_backend,
    resolve_backend_name,
    resolve_record_flag,
)
from repro.engine.registry import ADMISSION_ALGORITHMS
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import CompiledInstance, EdgeInterning
from repro.instances.request import EdgeId, Request, RequestSequence
from repro.utils.validation import check_positive

__all__ = ["CostClass", "FractionalDecision", "FractionalRunResult", "FractionalAdmissionControl"]


class CostClass:
    """Cost classes of the Section 2 preprocessing."""

    SMALL = "small"  #: cost below ``alpha / (mc)`` — rejected immediately.
    BIG = "big"  #: cost above ``2 * alpha`` — accepted permanently.
    NORMAL = "normal"  #: handled by the weight mechanism.
    FORCED = "forced"  #: accepted permanently because of its tag (reduction phase-2 requests).


@dataclass
class FractionalDecision:
    """Outcome of the fractional algorithm for one arriving request."""

    request_id: int
    cost_class: str
    #: weight-mechanism activity triggered by this arrival (None for SMALL,
    #: and for every class when the algorithm runs with ``record=False``).
    outcome: Optional[ArrivalOutcome]
    #: the request's own rejected fraction right after the arrival.
    fraction_rejected: float


@dataclass
class FractionalRunResult:
    """Summary of a full fractional run."""

    fractional_cost: float
    fractions: Dict[int, float]
    num_augmentations: int
    num_small: int
    num_big: int
    num_normal: int
    alpha: Optional[float]
    g: float

    @property
    def num_requests(self) -> int:
        """Total number of processed requests."""
        return self.num_small + self.num_big + self.num_normal


class FractionalAdmissionControl:
    """Online fractional admission control (Section 2 of the paper).

    Parameters
    ----------
    capacities:
        Edge-capacity mapping (the static part of the instance).
    alpha:
        Guess of the optimal (fractional) rejection cost.  When provided, the
        ``R_big`` / ``R_small`` preprocessing and the cost normalisation are
        applied exactly as in the paper.  When ``None`` the preprocessing is
        skipped and costs are used as given (they should then be scaled so the
        minimum relevant cost is about 1).
    g:
        Bound on the normalised cost ratio used in the seed weight
        ``1/(g c)``.  Defaults to ``2 m c`` when ``alpha`` is given (the
        paper's bound after normalisation), to ``1`` for unit-cost inputs and
        to ``2 m c`` otherwise.
    force_accept_tags:
        Requests carrying one of these tags are accepted permanently no matter
        their cost (used by the set-cover reduction's phase-2 element
        requests); their edges' effective capacities are decreased exactly as
        for ``R_big`` requests.
    unweighted:
        Set to True to assert that all costs are 1 and use ``g = 1`` (the
        ``O(log c)`` configuration of Theorem 2).
    backend:
        Weight-mechanism backend: a registered name (``"python"``,
        ``"numpy"``), an :class:`~repro.engine.config.EngineConfig`, or
        ``None`` for the scalar reference backend.
    record:
        Materialize per-arrival :class:`ArrivalOutcome` diagnostics (deltas,
        kills, step counts).  ``None`` defers to the backend spec
        (an ``EngineConfig``'s ``record`` field) and defaults to ``True``.
        With ``record=False`` the decisions carry ``outcome=None`` and the
        weight mechanism skips all delta materialization; fractions, costs
        and the decision log are unchanged.
    """

    #: Construction-time configuration, deliberately outside the checkpoint
    #: payload: restore_state() requires a wrapper rebuilt over the *same*
    #: capacities, so exporting them would only duplicate the constructor
    #: arguments (RPR004 allowlist).
    _LINT_STATE_EXEMPT = frozenset({"_original_capacities"})

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        *,
        alpha: Optional[float] = None,
        g: Optional[float] = None,
        force_accept_tags: Iterable[str] = (),
        unweighted: bool = False,
        backend: BackendSpec = None,
        record: Optional[bool] = None,
        name: Optional[str] = None,
    ):
        self._original_capacities: Dict[EdgeId, int] = {e: int(c) for e, c in capacities.items()}
        if not self._original_capacities:
            raise ValueError("capacities must contain at least one edge")
        self.m = len(self._original_capacities)
        self.c = max(self._original_capacities.values())
        self.unweighted = bool(unweighted)
        self.force_accept_tags = frozenset(force_accept_tags)
        self.name = name or type(self).__name__

        if alpha is not None:
            alpha = check_positive(alpha, "alpha")
        self.alpha = alpha

        if g is not None:
            self.g = check_positive(g, "g")
        elif self.unweighted:
            self.g = 1.0
        else:
            self.g = 2.0 * self.m * self.c

        self.backend = resolve_backend_name(backend)
        self.record = resolve_record_flag(backend, record)
        self._weights: WeightBackend = make_weight_backend(
            backend, self._original_capacities, g=self.g, max_capacity=self.c
        )

        # Bookkeeping in *original* cost units.
        self._original_cost: Dict[int, float] = {}
        self._class_of: Dict[int, str] = {}
        self._small_cost = 0.0
        self._decisions: List[FractionalDecision] = []

        # fractional_cost()'s cache, derived (not checkpointed) and filled
        # lazily: the original costs of the NORMAL requests in the backend's
        # registration order.  Its first ``_cost_cache_len`` slots cover the
        # first ``_cost_cache_scanned`` entries of ``_class_of``.
        self._cost_cache = np.empty(64, dtype=np.float64)
        self._cost_cache_len = 0
        self._cost_cache_scanned = 0

        # Compiled-path alignment cache: translation from an edge interning's
        # dense indices to the backend's (``None`` when they already
        # coincide, which is the common case), keyed on the interning object
        # so a session's micro-batches, which share one, compute it once.
        self._translated_for: Optional[EdgeInterning] = None
        self._translation: Optional[np.ndarray] = None

    # -- preprocessing thresholds -------------------------------------------------
    @property
    def small_threshold(self) -> Optional[float]:
        """Costs strictly below this are ``R_small`` (None when ``alpha`` is unset)."""
        if self.alpha is None:
            return None
        return self.alpha / (self.m * self.c)

    @property
    def big_threshold(self) -> Optional[float]:
        """Costs strictly above this are ``R_big`` (None when ``alpha`` is unset)."""
        if self.alpha is None:
            return None
        return 2.0 * self.alpha

    def update_alpha(self, alpha: float) -> None:
        """Update the guess of OPT for *future* arrivals (guess-and-double support).

        Already-processed requests keep their weights and classification; only
        the classification thresholds and the cost normalisation of subsequent
        requests change.  This matches the doubling scheme of Section 2, where
        previously rejected fractions are "forgotten" (their cost has been
        paid) and the algorithm simply continues with the larger guess.
        """
        self.alpha = check_positive(alpha, "alpha")

    def _normalized_cost(self, cost: float) -> float:
        """Scale a raw cost into the ``[1, g]`` range used by the weight mechanism."""
        if self.unweighted:
            return 1.0
        if self.alpha is None:
            return max(cost, 1e-12)
        scaled = cost * self.m * self.c / self.alpha
        # Costs outside [1, g] have been classified away; clipping only guards
        # against floating-point edge cases on the class boundaries.
        return min(max(scaled, 1.0), self.g)

    # -- online processing -----------------------------------------------------------
    def process(self, request: Request) -> FractionalDecision:
        """Process one arriving request and return its fractional decision."""
        rid = request.request_id
        if rid in self._class_of:
            raise ValueError(f"request id {rid} was already processed")
        unknown = [e for e in request.ordered_edges if e not in self._original_capacities]
        if unknown:
            raise ValueError(f"request {rid} uses unknown edges {unknown[:3]!r}")
        forced = request.tag is not None and request.tag in self.force_accept_tags
        if self.unweighted and not forced and abs(request.cost - 1.0) > 1e-9:
            raise ValueError(
                f"unweighted mode requires unit costs, request {rid} has cost {request.cost}"
            )
        self._original_cost[rid] = request.cost

        # Forced acceptance (set-cover reduction phase-2 requests).
        if forced:
            decision = self._accept_permanently(request, CostClass.FORCED)
        elif self.alpha is not None and request.cost < self.small_threshold:
            decision = self._reject_small(request)
        elif self.alpha is not None and request.cost > self.big_threshold:
            decision = self._accept_permanently(request, CostClass.BIG)
        else:
            decision = self._process_normal(request)
        self._decisions.append(decision)
        return decision

    # -- compiled (array-native) processing --------------------------------------------
    def _translation_for(self, compiled: CompiledInstance) -> Optional[np.ndarray]:
        """Map the compiled instance's edge numbering onto the backend's.

        When both were derived from the same capacity mapping (the common
        case) the numberings coincide and no translation is needed; otherwise
        a dense lookup vector is built.  Either way the answer is cached per
        :class:`~repro.instances.compiled.EdgeInterning` object, so the O(m)
        comparison runs once per interning, not once per compiled batch.
        """
        interning = compiled.interning
        if interning is self._translated_for:
            return self._translation
        if interning.edge_order == self._weights.edge_order:
            translate = None
        else:
            try:
                translate = np.fromiter(
                    (self._weights.edge_index_of(e) for e in interning.edge_order),
                    dtype=np.intp,
                    count=interning.num_edges,
                )
            except KeyError as err:
                raise ValueError(
                    f"compiled instance uses edge {err.args[0]!r} unknown to this algorithm"
                ) from None
        self._translated_for = interning
        self._translation = translate
        return translate

    def process_indexed(self, compiled: CompiledInstance, i: int) -> FractionalDecision:
        """Process arrival ``i`` of a compiled instance through the fast path.

        Performs the exact same classification and float operations as
        :meth:`process` on the corresponding :class:`Request`, but feeds the
        weight mechanism dense edge indices (no per-edge hashing) and honours
        the ``record`` mode.
        """
        rid = int(compiled.request_ids[i])
        if rid in self._class_of:
            raise ValueError(f"request id {rid} was already processed")
        cost = float(compiled.costs[i])
        tag = compiled.tags[i]
        forced = tag is not None and tag in self.force_accept_tags
        if self.unweighted and not forced and abs(cost - 1.0) > 1e-9:
            raise ValueError(
                f"unweighted mode requires unit costs, request {rid} has cost {cost}"
            )
        self._original_cost[rid] = cost

        if forced or (self.alpha is not None and cost > self.big_threshold):
            cost_class = CostClass.FORCED if forced else CostClass.BIG
            edge_idxs = self._compiled_edge_idxs(compiled, i)
            self._class_of[rid] = cost_class
            outcome = self._weights.process_capacity_reduction_batch(
                edge_idxs, rid, record=self.record
            )
            decision = FractionalDecision(rid, cost_class, outcome, 0.0)
        elif self.alpha is not None and cost < self.small_threshold:
            self._class_of[rid] = CostClass.SMALL
            self._small_cost += cost
            decision = FractionalDecision(rid, CostClass.SMALL, None, 1.0)
        else:
            self._class_of[rid] = CostClass.NORMAL
            normalized = self._normalized_cost(cost)
            edge_idxs = self._compiled_edge_idxs(compiled, i)
            outcome = self._weights.process_arrival_indexed(
                rid, edge_idxs, normalized, record=self.record
            )
            fraction = min(self._weights.weight(rid), 1.0)
            decision = FractionalDecision(rid, CostClass.NORMAL, outcome, fraction)
        self._decisions.append(decision)
        return decision

    def _compiled_edge_idxs(self, compiled: CompiledInstance, i: int) -> np.ndarray:
        """Backend-aligned dense edge indices of compiled arrival ``i``."""
        edge_idxs = compiled.edge_indices(i)
        translate = self._translation_for(compiled)
        if translate is not None:
            edge_idxs = translate[edge_idxs]
        return edge_idxs

    def process_compiled_range(
        self, compiled: CompiledInstance, lo: int, hi: int, *, vectorized: bool = True
    ) -> None:
        """Process the contiguous arrival range ``[lo, hi)`` of a compiled instance.

        With ``vectorized=True`` (the default) the range goes through the
        whole-trace executor of :mod:`repro.engine.vectorized`, which batches
        provably inert stretches and fuses the rest — same decisions,
        fractions, weights and exceptions as the per-arrival loop.  Subclasses
        that customise :meth:`process_indexed` (the guess-and-double wrapper)
        automatically fall back to the per-arrival loop so their hooks keep
        firing.
        """
        if vectorized and type(self).process_indexed is FractionalAdmissionControl.process_indexed:
            from repro.engine.vectorized import run_compiled_trace

            run_compiled_trace(self, compiled, lo, hi)
            return
        for i in range(lo, hi):
            self.process_indexed(compiled, i)

    def process_compiled_sequence(
        self, compiled: CompiledInstance, *, vectorized: bool = True
    ) -> FractionalRunResult:
        """Process every arrival of a compiled instance and return the summary."""
        self.process_compiled_range(compiled, 0, compiled.num_requests, vectorized=vectorized)
        return self.run_result()

    def _reject_small(self, request: Request) -> FractionalDecision:
        """``R_small`` handling: reject the whole request immediately."""
        self._class_of[request.request_id] = CostClass.SMALL
        self._small_cost += request.cost
        return FractionalDecision(request.request_id, CostClass.SMALL, None, 1.0)

    def _accept_permanently(self, request: Request, cost_class: str) -> FractionalDecision:
        """``R_big`` handling: accept for good and reserve capacity on its edges."""
        self._class_of[request.request_id] = cost_class
        edge_idxs = self._weights.edge_indices_of(request.ordered_edges)
        outcome = self._weights.process_capacity_reduction_batch(
            edge_idxs, request.request_id, record=self.record
        )
        return FractionalDecision(request.request_id, cost_class, outcome, 0.0)

    def _process_normal(self, request: Request) -> FractionalDecision:
        """Regular handling through the weight mechanism."""
        self._class_of[request.request_id] = CostClass.NORMAL
        normalized = self._normalized_cost(request.cost)
        edge_idxs = self._weights.edge_indices_of(request.ordered_edges)
        outcome = self._weights.process_arrival_indexed(
            request.request_id, edge_idxs, normalized, record=self.record
        )
        fraction = min(self._weights.weight(request.request_id), 1.0)
        return FractionalDecision(request.request_id, CostClass.NORMAL, outcome, fraction)

    # -- results --------------------------------------------------------------------
    def fraction_rejected(self, request_id: int) -> float:
        """Current rejected fraction of a processed request (in ``[0, 1]``)."""
        cls = self._class_of[request_id]
        if cls == CostClass.SMALL:
            return 1.0
        if cls in (CostClass.BIG, CostClass.FORCED):
            return 0.0
        return min(self._weights.weight(request_id), 1.0)

    def fractions(self) -> Dict[int, float]:
        """Rejected fraction of every processed request."""
        normal = self._weights.fractional_rejections()
        return {
            rid: normal[rid] if cls == CostClass.NORMAL else float(cls == CostClass.SMALL)
            for rid, cls in self._class_of.items()
        }

    def fractional_cost(self) -> float:
        """The algorithm's objective: ``sum_i min(f_i, 1) p_i`` in original cost units.

        ``R_small`` requests contribute their full cost, ``R_big``/forced
        requests contribute nothing (they are accepted), and requests in the
        weight mechanism contribute ``min(f_i, 1)`` times their original cost.

        The terms are added one by one, left to right: the ``R_small`` total
        first, then the weight mechanism's requests in arrival order.
        ``np.cumsum`` is such a sequential sum, so the result is bit-identical
        to a Python loop over the requests; ``ndarray.sum`` and ``np.dot`` add
        in another order, and the guess-and-double threshold test would see
        the drift.
        """
        weights = self._weights.weight_array()
        costs = self._normal_costs()
        if weights.shape[0] != costs.shape[0]:
            raise RuntimeError(
                f"weight backend holds {weights.shape[0]} requests, "
                f"but {costs.shape[0]} were classified NORMAL"
            )
        terms = np.empty(costs.shape[0] + 1, dtype=np.float64)
        terms[0] = self._small_cost
        np.minimum(weights, 1.0, out=terms[1:])
        terms[1:] *= costs
        return float(np.cumsum(terms)[-1])

    def _normal_costs(self) -> np.ndarray:
        """Original costs of the NORMAL requests, aligned with the backend's weights.

        The backend registers exactly the NORMAL requests, in arrival order,
        and ``_class_of`` only ever grows at its end, so the requests
        classified since the last call are its last entries.
        """
        new = len(self._class_of) - self._cost_cache_scanned
        if new:
            class_of = self._class_of
            recent = list(islice(reversed(class_of), new))
            recent.reverse()
            costs = [
                self._original_cost[rid] for rid in recent if class_of[rid] == CostClass.NORMAL
            ]
            lo = self._cost_cache_len
            hi = lo + len(costs)
            if hi > self._cost_cache.shape[0]:
                grown = np.empty(2 * hi, dtype=np.float64)
                grown[:lo] = self._cost_cache[:lo]
                self._cost_cache = grown
            self._cost_cache[lo:hi] = costs
            self._cost_cache_len = hi
            self._cost_cache_scanned += new
        return self._cost_cache[: self._cost_cache_len]

    @property
    def num_augmentations(self) -> int:
        """Total number of weight augmentations performed so far (Lemma 1 quantity)."""
        return self._weights.total_augmentations

    @property
    def weight_state(self) -> WeightBackend:
        """The underlying weight mechanism (read-only use recommended)."""
        return self._weights

    def cost_class(self, request_id: int) -> str:
        """Cost class assigned to a processed request."""
        return self._class_of[request_id]

    def was_processed(self, request_id: int) -> bool:
        """True if a request with this id has already arrived (read-only)."""
        return request_id in self._class_of

    def decisions(self) -> List[FractionalDecision]:
        """Chronological fractional decisions."""
        return list(self._decisions)

    def decisions_since(self, start: int) -> List[FractionalDecision]:
        """Decisions appended at or after index ``start`` (a cheap tail read)."""
        return self._decisions[start:]

    def check_invariants(self) -> List[str]:
        """Delegate to the weight mechanism's invariant checker."""
        return self._weights.check_invariants()

    def run_result(self) -> FractionalRunResult:
        """Snapshot of the run so far."""
        classes = list(self._class_of.values())
        return FractionalRunResult(
            fractional_cost=self.fractional_cost(),
            fractions=self.fractions(),
            num_augmentations=self.num_augmentations,
            num_small=classes.count(CostClass.SMALL),
            num_big=classes.count(CostClass.BIG) + classes.count(CostClass.FORCED),
            num_normal=classes.count(CostClass.NORMAL),
            alpha=self.alpha,
            g=self.g,
        )

    # -- checkpoint state (used by the streaming layer) --------------------------------
    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the algorithm's durable state.

        Includes the weight mechanism (:meth:`WeightBackend.export_state`),
        the cost-class bookkeeping and the decision log.  Per-arrival
        :class:`ArrivalOutcome` diagnostics are *not* durable state: restored
        decisions carry ``outcome=None``, exactly like a ``record=False`` run.
        """
        return {
            "kind": "fractional",
            "alpha": self.alpha,
            "g": float(self.g),
            "unweighted": self.unweighted,
            "small_cost": float(self._small_cost),
            "original_cost": [[int(r), float(c)] for r, c in self._original_cost.items()],
            "class_of": [[int(r), cls] for r, cls in self._class_of.items()],
            "decisions": [
                [int(d.request_id), d.cost_class, float(d.fraction_rejected)]
                for d in self._decisions
            ],
            "weights": self._weights.export_state(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this (fresh) algorithm.

        The algorithm must have been constructed over the same capacities (in
        the same order) and with the same configuration; after restoring, it
        processes future arrivals exactly as the snapshotted run would have.
        """
        if state.get("kind") != "fractional":
            raise ValueError(f"not a fractional-algorithm state: kind={state.get('kind')!r}")
        if self._class_of:
            raise ValueError("restore_state requires a freshly constructed algorithm")
        self.alpha = None if state["alpha"] is None else float(state["alpha"])
        self._small_cost = float(state["small_cost"])
        self._original_cost = {int(r): float(c) for r, c in state["original_cost"]}
        self._class_of = {int(r): str(cls) for r, cls in state["class_of"]}
        self._decisions = [
            FractionalDecision(int(r), str(cls), None, float(f))
            for r, cls, f in state["decisions"]
        ]
        self._weights.restore_state(state["weights"])

    # -- conveniences ------------------------------------------------------------------
    @classmethod
    def for_instance(
        cls, instance: AdmissionInstance, **kwargs
    ) -> "FractionalAdmissionControl":
        """Construct the algorithm for a concrete instance's capacities."""
        if "unweighted" not in kwargs and instance.is_unit_cost():
            kwargs["unweighted"] = True
        return cls(instance.capacities, **kwargs)

    def process_sequence(
        self,
        requests: Union[CompiledInstance, RequestSequence, Iterable[Request]],
        *,
        vectorized: bool = True,
    ) -> FractionalRunResult:
        """Process a whole request sequence and return the run summary.

        A :class:`~repro.instances.compiled.CompiledInstance` is routed
        through the array-native fast path (whole-trace vectorized unless
        ``vectorized=False``); anything else streams through :meth:`process`
        request by request.
        """
        if isinstance(requests, CompiledInstance):
            return self.process_compiled_sequence(requests, vectorized=vectorized)
        for request in requests:
            self.process(request)
        return self.run_result()


@ADMISSION_ALGORITHMS.register("fractional")
def _build_fractional(instance, *, random_state=None, backend=None, **kwargs):
    """Registry builder: the (deterministic) fractional algorithm of Section 2."""
    return FractionalAdmissionControl.for_instance(instance, backend=backend, **kwargs)
