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

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.engine.backends import (
    ArrivalOutcome,
    BackendSpec,
    EdgeIndices,
    WeightBackend,
    make_weight_backend,
    resolve_backend_name,
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


#: One-letter checkpoint code of each cost class, and its inverse.
_CLASS_CODES = {CostClass.SMALL: "s", CostClass.BIG: "b", CostClass.NORMAL: "n", CostClass.FORCED: "f"}
_CODE_CLASSES = {code: cls for cls, code in _CLASS_CODES.items()}
#: The same letters as the ``uint8`` values of the class column, and back.
_CLASS_BYTES = {cls: ord(code) for cls, code in _CLASS_CODES.items()}
_BYTE_CLASSES = {byte: cls for cls, byte in _CLASS_BYTES.items()}
_SMALL = _CLASS_BYTES[CostClass.SMALL]
_NORMAL = _CLASS_BYTES[CostClass.NORMAL]


@dataclass
class FractionalDecision:
    """Outcome of the fractional algorithm for one arriving request."""

    request_id: int
    cost_class: str
    #: weight-mechanism activity triggered by this arrival; ``None`` for
    #: SMALL, and for every class unless the algorithm runs with
    #: ``record=True`` (the randomized rounding's shadow).  Only the
    #: decision :meth:`~FractionalAdmissionControl.process` returns carries
    #: it: the algorithm keeps rows, not decisions, and the decision log
    #: rebuilds decisions with ``outcome=None``.
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
        Materialize each arrival's :class:`ArrivalOutcome` (deltas, kills,
        step counts) on the decision :meth:`process` returns.  Only the
        randomized rounding reads them, so only its shadow passes ``True``.
        With the default ``False`` the decisions carry ``outcome=None`` and
        the weight mechanism skips all delta materialization; fractions,
        costs and the decision log are the same either way.

    The algorithm keeps one row per arrival, in arrival order, in typed
    columns (:class:`array.array`, read in bulk through zero-copy NumPy
    views): the id (``int64``), the cost class (its :data:`_CLASS_CODES`
    letter as ``uint8``), the original cost and the fraction its decision
    reported, plus one id -> row dict.  The checkpoint stores exactly these
    columns.
    """

    #: RPR004 allowlist.  ``_original_capacities`` is construction-time
    #: configuration, deliberately outside the checkpoint payload:
    #: restore_state() requires a wrapper rebuilt over the *same* capacities,
    #: so exporting them would only duplicate the constructor arguments.
    #: ``_normal_cost`` is derived from the class and cost columns, which
    #: restore_state() rebuilds it from.
    _LINT_STATE_EXEMPT = frozenset({"_original_capacities", "_normal_cost"})

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        *,
        alpha: Optional[float] = None,
        g: Optional[float] = None,
        force_accept_tags: Iterable[str] = (),
        unweighted: bool = False,
        backend: BackendSpec = None,
        record: bool = False,
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
        self.record = bool(record)
        self._weights: WeightBackend = make_weight_backend(
            backend, self._original_capacities, g=self.g, max_capacity=self.c
        )

        # The row table, in *original* cost units: row r is the r-th arrival.
        # array.array columns: an append costs one C call, half what a NumPy
        # element write costs, and np.frombuffer reads them without a copy
        # (no view may outlive the read: a column with a live view cannot grow).
        self._row: Dict[int, int] = {}  # request id -> row
        self._ids = array("q")
        self._classes = array("B")
        self._cost = array("d")
        self._fraction = array("d")
        self._small_cost = 0.0
        # The NORMAL rows' original costs, aligned with the weight backend's
        # registration order (invariant 11): fractional_cost() reads both.
        self._normal_cost = array("d")

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
    def check_arrival(self, request: Request) -> None:
        """Raise the ``ValueError`` :meth:`process` would raise for ``request``.

        Read-only: it rejects a duplicate id, an id the ``int64`` row table
        cannot hold, an edge outside the capacity map and, in unweighted
        mode, a non-unit cost.  The guess-and-double wrappers call it
        before their schedule counts the arrival.
        """
        self._check_arrival(request.request_id, request.cost, request.tag, request.ordered_edges)

    def _check_arrival(
        self, rid: int, cost: float, tag: Optional[str], edges: Iterable[EdgeId] = ()
    ) -> bool:
        """The checks an arrival passes before any state changes.

        Returns whether the arrival's tag forces its acceptance.
        """
        if rid in self._row:
            raise ValueError(f"request id {rid} was already processed")
        if not -(2**63) <= rid < 2**63:
            raise ValueError(f"request id {rid} does not fit an int64 id column")
        # Runs once per arrival: a known path builds no list.
        capacities = self._original_capacities
        for edge in edges:
            if edge not in capacities:
                unknown = [e for e in edges if e not in capacities]
                raise ValueError(f"request {rid} uses unknown edges {unknown[:3]!r}")
        forced = tag is not None and tag in self.force_accept_tags
        if self.unweighted and not forced and abs(cost - 1.0) > 1e-9:
            raise ValueError(
                f"unweighted mode requires unit costs, request {rid} has cost {cost}"
            )
        return forced

    def process(self, request: Request) -> FractionalDecision:
        """Process one arriving request and return its fractional decision."""
        rid = request.request_id
        forced = self._check_arrival(rid, request.cost, request.tag, request.ordered_edges)
        edge_idxs = self._weights.edge_indices_of(request.ordered_edges)
        return self._decide(rid, request.cost, forced, edge_idxs)

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

    def check_compiled(self, compiled: CompiledInstance) -> None:
        """Raise the ``ValueError`` :meth:`process_indexed` raises for a foreign interning.

        Read-only: an interning that holds an edge outside the capacity map
        cannot be translated, whichever edges an arrival uses.  The answer is
        cached per interning, so the wrappers that call it before their own
        bookkeeping pay the O(m) check once.
        """
        self._translation_for(compiled)

    def process_indexed(self, compiled: CompiledInstance, i: int) -> FractionalDecision:
        """Process arrival ``i`` of a compiled instance through the fast path.

        The same decision as :meth:`process` on the corresponding
        :class:`Request`, but the weight mechanism gets the compiled dense
        edge indices (no per-edge hashing).
        """
        rid = int(compiled.request_ids[i])
        cost = float(compiled.costs[i])
        forced = self._check_arrival(rid, cost, compiled.tags[i])
        # Translate the edges before any state changes: an edge this
        # algorithm does not know raises here.
        edge_idxs = compiled.edge_indices(i)
        translate = self._translation_for(compiled)
        if translate is not None:
            edge_idxs = translate[edge_idxs]
        return self._decide(rid, cost, forced, edge_idxs)

    def _decide(
        self, rid: int, cost: float, forced: bool, edge_idxs: EdgeIndices
    ) -> FractionalDecision:
        """Classify a checked arrival (Section 2's preprocessing) and apply its class.

        FORCED and BIG arrivals are accepted for good and reserve capacity on
        their edges, SMALL ones are rejected outright, and NORMAL ones go
        through the weight mechanism; ``edge_idxs`` are the backend's dense
        indices of the arrival's path, in canonical order.  The arrival's row
        is booked once the weight mechanism is done with it.
        """
        outcome = None
        if forced or (self.alpha is not None and cost > self.big_threshold):
            cost_class = CostClass.FORCED if forced else CostClass.BIG
            outcome = self._weights.process_capacity_reduction_batch(
                edge_idxs, rid, record=self.record
            )
            fraction = 0.0
        elif self.alpha is not None and cost < self.small_threshold:
            cost_class = CostClass.SMALL
            fraction = 1.0
        else:
            cost_class = CostClass.NORMAL
            normalized = self._normalized_cost(cost)
            outcome = self._weights.process_arrival_indexed(
                rid, edge_idxs, normalized, record=self.record
            )
            fraction = min(self._weights.weight(rid), 1.0)
        self._book_row(rid, _CLASS_BYTES[cost_class], cost, fraction)
        return FractionalDecision(rid, cost_class, outcome, fraction)

    # -- the row table -----------------------------------------------------------------
    def _book_row(self, rid: int, code: int, cost: float, fraction: float) -> None:
        """Append one decided arrival's row (``code`` is its class letter as a byte)."""
        self._row[rid] = len(self._ids)
        self._ids.append(rid)
        self._classes.append(code)
        self._cost.append(cost)
        self._fraction.append(fraction)
        if code == _NORMAL:
            self._normal_cost.append(cost)
        elif code == _SMALL:
            self._small_cost += cost

    def _book_block(
        self,
        rids: List[int],
        small: np.ndarray,
        costs: np.ndarray,
        fractions: Optional[np.ndarray],
    ) -> None:
        """Append the rows of a run of arrivals the block executor decided, in arrival order.

        Every arrival is NORMAL or SMALL (``small`` marks the latter), with
        its original cost in ``costs``; ``fractions`` are the NORMAL
        arrivals' fractions in order (``None`` when there are none).  The
        R_small total adds the SMALL costs one by one, left to right, as
        :meth:`_book_row` would.
        """
        n = len(self._ids)
        normal = ~small
        self._row.update(zip(rids, range(n, n + len(rids))))
        self._ids.extend(rids)
        self._classes.frombytes(np.where(small, _SMALL, _NORMAL).astype(np.uint8).tobytes())
        self._cost.frombytes(costs.tobytes())
        fraction = np.ones(len(rids), dtype=np.float64)
        if fractions is not None:
            fraction[normal] = fractions
        self._fraction.frombytes(fraction.tobytes())
        self._normal_cost.frombytes(costs[normal].tobytes())
        small_costs = costs[small]
        if small_costs.shape[0]:
            # np.cumsum is a sequential sum: bit-identical to one += per arrival.
            terms = np.concatenate(([self._small_cost], small_costs))
            self._small_cost = float(np.cumsum(terms)[-1])

    def _repeated_positions(self, rids: List[int]) -> List[int]:
        """Positions in ``rids`` of ids already processed or repeated earlier in ``rids``."""
        row = self._row
        if len(set(rids)) == len(rids) and row.keys().isdisjoint(rids):
            return []
        seen = set()
        repeated = []
        for k, rid in enumerate(rids):
            if rid in row or rid in seen:
                repeated.append(k)
            else:
                seen.add(rid)
        return repeated

    def process_compiled_range(
        self, compiled: CompiledInstance, lo: int, hi: int, *, vectorized: bool = True
    ) -> None:
        """Process the contiguous arrival range ``[lo, hi)`` of a compiled instance.

        With ``vectorized=True`` (the default) the range goes through the
        whole-trace executor of :mod:`repro.engine.vectorized`, which hands
        runs of arrivals to the weight backend's block kernel: path entries
        that provably cannot overflow their edge register in bulk, only the
        rest are stepped — same decisions, fractions, weights and exceptions
        as the per-arrival :meth:`process_indexed` loop ``vectorized=False``
        runs.
        """
        if vectorized:
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

    # -- results --------------------------------------------------------------------
    def fraction_rejected(self, request_id: int) -> float:
        """Current rejected fraction of a processed request (in ``[0, 1]``)."""
        code = self._classes[self._row[request_id]]
        if code == _SMALL:
            return 1.0
        if code == _NORMAL:
            return min(self._weights.weight(request_id), 1.0)
        return 0.0

    def fractions(self) -> Dict[int, float]:
        """Rejected fraction of every processed request."""
        classes = np.frombuffer(self._classes, dtype=np.uint8)
        fractions = (classes == _SMALL).astype(np.float64)
        fractions[classes == _NORMAL] = np.minimum(self._weights.weight_array(), 1.0)
        return dict(zip(self._ids.tolist(), fractions.tolist()))

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
        costs = np.frombuffer(self._normal_cost, dtype=np.float64)
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
        return _BYTE_CLASSES[self._classes[self._row[request_id]]]

    def was_processed(self, request_id: int) -> bool:
        """True if a request with this id has already arrived (read-only)."""
        return request_id in self._row

    def decisions(self) -> List[FractionalDecision]:
        """Chronological fractional decisions."""
        return self.decisions_since(0)

    def decisions_since(self, start: int) -> List[FractionalDecision]:
        """Decisions of the rows at or after index ``start`` (a cheap tail read).

        Built from the row columns, with ``outcome=None``: the algorithm
        keeps no decision objects.
        """
        return list(
            map(
                FractionalDecision,
                self._ids[start:].tolist(),
                map(_CODE_CLASSES.__getitem__, self._classes[start:].tobytes().decode("ascii")),
                repeat(None),
                self._fraction[start:].tolist(),
            )
        )

    def check_invariants(self) -> List[str]:
        """Delegate to the weight mechanism's invariant checker."""
        return self._weights.check_invariants()

    def run_result(self) -> FractionalRunResult:
        """Snapshot of the run so far."""
        counts = np.bincount(np.frombuffer(self._classes, dtype=np.uint8), minlength=256)
        num = {cls: int(counts[byte]) for cls, byte in _CLASS_BYTES.items()}
        return FractionalRunResult(
            fractional_cost=self.fractional_cost(),
            fractions=self.fractions(),
            num_augmentations=self.num_augmentations,
            num_small=num[CostClass.SMALL],
            num_big=num[CostClass.BIG] + num[CostClass.FORCED],
            num_normal=num[CostClass.NORMAL],
            alpha=self.alpha,
            g=self.g,
        )

    # -- checkpoint state (used by the streaming layer) --------------------------------
    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the algorithm's durable state, as columns.

        The row table's columns, one row per arrival, in arrival order:
        ``ids``, ``classes`` (one :data:`_CLASS_CODES` letter each), ``cost``
        (the original cost) and ``fraction`` (the rejected fraction its
        decision reported).  Beside them: the weight mechanism
        (:meth:`WeightBackend.export_state`), ``alpha`` and the ``R_small``
        total.  Per-arrival :class:`ArrivalOutcome` diagnostics are *not*
        durable state: the algorithm never keeps them.
        """
        n = len(self._ids)
        if len(self._row) != n:
            raise RuntimeError(f"{len(self._row)} ids index {n} rows; an id was booked twice")
        return {
            "kind": "fractional",
            "alpha": self.alpha,
            "g": float(self.g),
            "unweighted": self.unweighted,
            "small_cost": float(self._small_cost),
            "ids": self._ids.tolist(),
            "classes": self._classes.tobytes().decode("ascii"),
            "cost": self._cost.tolist(),
            "fraction": self._fraction.tolist(),
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
        if self._ids:
            raise ValueError("restore_state requires a freshly constructed algorithm")
        unknown = set(state["classes"]) - _CODE_CLASSES.keys()
        if unknown:
            raise ValueError(f"checkpoint holds unknown cost-class codes {sorted(unknown)!r}")
        ids = array("q", state["ids"])
        classes = array("B", state["classes"].encode("ascii"))
        costs = array("d", state["cost"])
        fractions = array("d", state["fraction"])
        n = len(ids)
        if not n == len(classes) == len(costs) == len(fractions):
            raise ValueError("checkpoint arrival columns disagree in length")
        self.alpha = None if state["alpha"] is None else float(state["alpha"])
        self._small_cost = float(state["small_cost"])
        self._ids, self._classes, self._cost, self._fraction = ids, classes, costs, fractions
        self._row = dict(zip(ids.tolist(), range(n)))
        normal = np.frombuffer(classes, dtype=np.uint8) == _NORMAL
        self._normal_cost = array("d", np.frombuffer(costs, dtype=np.float64)[normal].tobytes())
        self._weights.restore_state(state["weights"])

    # -- conveniences ------------------------------------------------------------------
    @classmethod
    def for_instance(
        cls, instance: AdmissionInstance, **kwargs
    ) -> "FractionalAdmissionControl":
        """Construct the algorithm for a concrete instance's capacities."""
        return cls(instance.capacities, **cls.instance_kwargs(instance, kwargs))

    @staticmethod
    def instance_kwargs(instance: AdmissionInstance, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        """``kwargs`` over the instance's defaults: unit costs run unweighted
        (``g = 1``, the O(log c) case of Theorem 2)."""
        return {"unweighted": True, **kwargs} if instance.is_unit_cost() else dict(kwargs)

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
