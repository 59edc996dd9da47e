"""Weight-mechanism backends: the paper's multiplicative-weight update, twice.

The fractional algorithm of Section 2 maintains a weight ``f_i`` for every
request ``r_i`` (the fraction of the request that has been rejected).  When a
request arrives, the algorithm looks at every edge on its path and, while the
covering constraint

    sum_{i in ALIVE_e} f_i  >=  n_e      with   n_e = |ALIVE_e| - c_e

is violated, performs a *weight augmentation*:

1. every alive request on the edge with weight 0 receives the seed weight
   ``1 / (g c)``;
2. every alive request on the edge has its weight multiplied by
   ``1 + 1 / (n_e * p_i)``;
3. requests whose weight reached 1 are declared fully rejected ("dead"), which
   removes them from the alive sets of *all* their edges and thereby lowers the
   excess ``n_e``.

This module implements the mechanism behind the :class:`WeightBackend`
protocol, twice:

* :class:`PythonWeightBackend` — the scalar reference implementation.
  One Python statement per paper step; this is the ground truth every other
  backend is tested against.
* :class:`NumpyWeightBackend` — keeps per-request weights and costs in
  contiguous ``float64`` arrays and per-edge alive sets as index vectors, so
  the seed / multiply / kill steps of an augmentation are vectorized
  operations.  The elementwise arithmetic is the same IEEE-754 double
  arithmetic the scalar backend performs, so the two backends agree to
  floating-point rounding (the cross-backend equivalence suite pins them to
  within 1e-9, and in practice they are bit-identical on the weights).

Since the compiled-instance refactor, every backend **interns** its edge ids
to dense integers at construction time (in the capacity mapping's iteration
order — the same order :func:`repro.instances.compiled.compile_sequence`
uses), and the mechanism itself runs purely on those integers:

* the classic :class:`~repro.instances.request.EdgeId`-keyed API
  (:meth:`process_arrival`, :meth:`process_capacity_reduction`, the state
  queries) still works and simply translates at the boundary;
* the **indexed fast path** — :meth:`process_arrival_indexed` and the
  multi-edge :meth:`process_capacity_reduction_batch` — accepts dense edge
  indices directly (e.g. a CSR slice of a
  :class:`~repro.instances.compiled.CompiledInstance`), skipping all
  per-arrival hashing;
* both entry points take ``record=False`` to skip materializing the
  :class:`ArrivalOutcome` (per-request deltas, kills and the step count).
  The weights, kills and the ``total_augmentations`` counter evolve
  identically either way, through the same restore kernel.  Callers that
  round deltas (the randomized algorithm) must keep ``record=True``.

Both backends register themselves in
:data:`repro.engine.registry.WEIGHT_BACKENDS`; algorithms resolve a backend by
name through :func:`make_weight_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, Iterable, KeysView, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.registry import WEIGHT_BACKENDS
from repro.instances.request import EdgeId
from repro.utils.validation import check_positive

__all__ = [
    "ArrivalOutcome",
    "WeightBackend",
    "PythonWeightBackend",
    "NumpyWeightBackend",
    "BackendSpec",
    "make_weight_backend",
    "resolve_backend_name",
]

#: Anything an algorithm accepts where a backend choice is expected.
BackendSpec = Union[None, str, EngineConfig]

#: Anything the indexed fast path accepts as a run of dense edge indices.
EdgeIndices = Union[Sequence[int], np.ndarray]

#: Relative slack applied when comparing an alive-weight sum against the
#: integer excess ``n_e``.  The per-request weights are bit-identical across
#: backends, but the *sum* is order-dependent (a Python set iteration vs
#: NumPy's pairwise reduction), so on unit-cost instances — where the sum
#: frequently lands exactly on the integer threshold — a one-ULP difference
#: would flip the augmentation decision and the backends would genuinely
#: diverge.  Treating "within 1e-9 relative of satisfied" as satisfied makes
#: the decision identical whenever the sums agree to the repository's 1e-9
#: equivalence tolerance.
SUM_TOLERANCE = 1e-9


def _with_room(column: np.ndarray, need: int) -> np.ndarray:
    """``column`` if it holds ``need`` entries, else a zero-padded copy at least twice as long.

    The numpy backend's slot columns and CSR paths grow through it, so an
    append costs amortised O(1).
    """
    size = column.shape[0]
    if need <= size:
        return column
    grown = np.zeros(max(need, 2 * size), dtype=column.dtype)
    grown[:size] = column
    return grown


@dataclass
class ArrivalOutcome:
    """What the weight mechanism did while processing one arrival.

    ``deltas`` maps request id to the total weight increase caused by this
    arrival — exactly the ``delta`` the randomized algorithm's step 3 rounds.
    ``newly_dead`` holds the requests the arrival killed and
    ``num_augmentations`` counts its augmentation steps.  Only materialized
    when the arrival was processed with ``record=True`` (the default); the
    record-free fast path returns ``None`` instead.
    """

    request_id: int
    deltas: Dict[int, float] = field(default_factory=dict)
    newly_dead: Set[int] = field(default_factory=set)
    num_augmentations: int = 0


class WeightBackend:
    """Shared skeleton and protocol of the weight-mechanism backends.

    The base class owns the edge interning (edge id <-> dense index), the
    parameter validation, the arrival-level orchestration shared by all
    backends, and a storage-agnostic invariant checker.  Subclasses own the
    storage and implement the indexed primitives (:meth:`_register_indexed`,
    :meth:`_restore_edge_indexed`, the ``*_indexed`` state queries).

    Parameters
    ----------
    capacities:
        Effective capacities per edge.  The mapping's iteration order fixes
        the dense edge numbering (index ``k`` is the ``k``-th key), matching
        :func:`repro.instances.compiled.compile_sequence` built from the same
        mapping.  Capacities may be lower than the instance's original
        capacities when requests have been permanently accepted (the
        ``R_big`` preprocessing or the set-cover reduction's element
        requests) — see :meth:`decrease_capacity`.
    g:
        Upper bound on the (normalised) cost ratio; the seed weight for a
        request that first becomes positive is ``1 / (g * c)`` where ``c`` is
        the maximum capacity (paper, step 2a).
    max_capacity:
        ``c`` in the seed-weight formula; defaults to the maximum of
        ``capacities`` and is kept fixed even if capacities later decrease so
        the seed weight is stable over the run.
    """

    #: Registry key of the backend; subclasses override.
    name = "abstract"

    #: RPR004 allowlist.  ``_edge_index`` is the interning table, rebuilt by
    #: the constructor from the same capacity map restore_state() requires.
    _LINT_STATE_EXEMPT = frozenset({"_edge_index"})

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        g: float,
        max_capacity: Optional[int] = None,
    ):
        # Edge interning: dense index <-> edge id, capacities as a flat list.
        self._edge_order: Tuple[EdgeId, ...] = tuple(capacities)
        self._edge_index: Dict[EdgeId, int] = {e: k for k, e in enumerate(self._edge_order)}
        self._cap: List[int] = []
        for edge in self._edge_order:
            cap = int(capacities[edge])
            if cap < 0:
                raise ValueError(f"capacity of edge {edge!r} must be >= 0, got {cap}")
            self._cap.append(cap)
        self.g = check_positive(g, "g")
        if max_capacity is None:
            max_capacity = max(self._cap, default=1)
        self.max_capacity = max(int(max_capacity), 1)
        self.seed_weight = 1.0 / (self.g * self.max_capacity)

        # Counter for Lemma 1 style diagnostics.
        self.total_augmentations = 0

    # -- edge interning ---------------------------------------------------------------
    @property
    def edge_order(self) -> Tuple[EdgeId, ...]:
        """Dense edge index -> edge id (the interning table)."""
        return self._edge_order

    @property
    def num_edges(self) -> int:
        """Number of interned edges."""
        return len(self._edge_order)

    def edge_index_of(self, edge: EdgeId) -> int:
        """Dense index of ``edge`` (KeyError for unknown edges)."""
        return self._edge_index[edge]

    def edge_indices_of(self, edges: Iterable[EdgeId]) -> Tuple[int, ...]:
        """Dense indices of several edges (ValueError for unknown edges)."""
        index = self._edge_index
        out: List[int] = []
        for edge in edges:
            k = index.get(edge)
            if k is None:
                raise ValueError(f"unknown edge {edge!r}")
            out.append(k)
        return tuple(out)

    @staticmethod
    def _normalize_indices(edge_idxs: EdgeIndices) -> Tuple[int, ...]:
        """Coerce an index run (list/tuple/ndarray) into a tuple of Python ints."""
        if isinstance(edge_idxs, np.ndarray):
            return tuple(edge_idxs.tolist())
        return tuple(int(k) for k in edge_idxs)

    # -- primitives every backend implements (dense-index domain) ----------------------
    def _register_indexed(self, request_id: int, edge_idxs: Tuple[int, ...], cost: float) -> None:
        """Register a new request with weight 0 (paper: ``f_i = 0`` initially)."""
        raise NotImplementedError

    def _restore_edge_indexed(self, eidx: int, outcome: Optional[ArrivalOutcome]) -> None:
        """Run weight augmentations on edge ``eidx`` until its constraint holds.

        ``outcome`` is ``None`` in record-free mode: the weights evolve
        identically, but no deltas, kills or step counts are materialized.
        """
        raise NotImplementedError

    def _edge_idxs_of_request(self, request_id: int) -> Tuple[int, ...]:
        """Dense edge indices the request was registered with."""
        raise NotImplementedError

    def _registered_ids(self) -> KeysView[int]:
        """The registered request ids (a view of the backend's id-keyed dict)."""
        raise NotImplementedError

    def _check_new_ids(self, request_ids: Sequence[int]) -> None:
        """Refuse a run that holds a registered id or repeats one, before any state changes."""
        known = self._registered_ids()
        if len(set(request_ids)) != len(request_ids) or not known.isdisjoint(request_ids):
            seen: Set[int] = set()
            for rid in request_ids:
                if rid in known or rid in seen:
                    raise ValueError(f"request {rid} already registered")
                seen.add(rid)

    @staticmethod
    def _checked_costs(costs: np.ndarray) -> np.ndarray:
        """The block path's costs as ``float64``; ``ValueError`` unless every one is > 0."""
        costs = np.asarray(costs, dtype=np.float64)
        bad = np.flatnonzero(~(costs > 0))
        if bad.shape[0]:
            raise ValueError(f"cost must be > 0, got {float(costs[bad[0]])!r}")
        return costs

    def _alive_requests_indexed(self, eidx: int) -> Set[int]:
        raise NotImplementedError

    def _requests_on_indexed(self, eidx: int) -> Set[int]:
        raise NotImplementedError

    def _request_count_indexed(self, eidx: int) -> int:
        raise NotImplementedError

    def _alive_count_indexed(self, eidx: int) -> int:
        raise NotImplementedError

    def _alive_weight_sum_indexed(self, eidx: int) -> float:
        raise NotImplementedError

    def _edges_seen_indexed(self) -> Iterable[int]:
        raise NotImplementedError

    # -- request-level queries (subclasses implement; id domain is unchanged) ----------
    def weight(self, request_id: int) -> float:
        """Current weight ``f_i``."""
        raise NotImplementedError

    def cost_of(self, request_id: int) -> float:
        """The (normalised) cost the request was registered with."""
        raise NotImplementedError

    def weights(self) -> Dict[int, float]:
        """Copy of all weights, in registration order."""
        raise NotImplementedError

    def weight_array(self) -> np.ndarray:
        """``float64[n]`` of all weights, in registration order.

        May be a view of the backend's storage: read it before the next
        registration or weight update, and never write to it.
        """
        raise NotImplementedError

    def is_dead(self, request_id: int) -> bool:
        """True if the request has been fully rejected fractionally (``f_i >= 1``)."""
        raise NotImplementedError

    # -- EdgeId-keyed views (translate at the boundary) ---------------------------------
    def edges_of(self, request_id: int) -> Tuple[EdgeId, ...]:
        """The edges the request was registered with (original edge ids)."""
        order = self._edge_order
        return tuple(order[k] for k in self._edge_idxs_of_request(request_id))

    def alive_requests(self, edge: EdgeId) -> Set[int]:
        """``ALIVE_e`` — alive request ids whose paths contain ``edge``."""
        return self._alive_requests_indexed(self._edge_index[edge])

    def requests_on(self, edge: EdgeId) -> Set[int]:
        """``REQ_e`` — all registered request ids whose paths contain ``edge``."""
        return self._requests_on_indexed(self._edge_index[edge])

    def request_count(self, edge: EdgeId) -> int:
        """``|REQ_e|`` in O(1) (the Section-3 overload guard asks it per arrival)."""
        return self._request_count_indexed(self._edge_index[edge])

    def alive_count(self, edge: EdgeId) -> int:
        """``|ALIVE_e|``."""
        return self._alive_count_indexed(self._edge_index[edge])

    def alive_weight_sum(self, edge: EdgeId) -> float:
        """``sum_{i in ALIVE_e} f_i``."""
        return self._alive_weight_sum_indexed(self._edge_index[edge])

    def edges_seen(self) -> Iterable[EdgeId]:
        """Edges on which at least one request was registered."""
        order = self._edge_order
        return [order[k] for k in self._edges_seen_indexed()]

    # -- shared bookkeeping ----------------------------------------------------------
    def capacity(self, edge: EdgeId) -> int:
        """Current effective capacity of ``edge``."""
        return self._cap[self._edge_index[edge]]

    def decrease_capacity(self, edge: EdgeId, amount: int = 1) -> None:
        """Permanently reserve capacity on ``edge`` (used by ``R_big`` handling).

        The effective capacity never drops below zero; requesting a decrease
        past zero is recorded as an inconsistency (the caller's guess of
        ``alpha`` was too small) but does not raise, so the doubling wrapper
        can observe the overflow through the cost blow-up instead of crashing.
        """
        k = self._edge_index.get(edge)
        if k is None:
            raise ValueError(f"unknown edge {edge!r}")
        self._decrease_capacity_indexed(k, amount)

    def _decrease_capacity_indexed(self, eidx: int, amount: int = 1) -> None:
        self._decrease_capacities_indexed((eidx,), amount)

    def _decrease_capacities_indexed(self, edge_idxs: Sequence[int], amount: int = 1) -> None:
        """Decrease several edges' capacities in one call (floor at zero).

        The batch primitive behind :meth:`process_capacity_reduction_batch`;
        the scalar :meth:`_decrease_capacity_indexed` delegates here so the
        clamping rule lives in exactly one place.
        """
        cap = self._cap
        for eidx in edge_idxs:
            new = cap[eidx] - amount
            cap[eidx] = new if new > 0 else 0

    def excess(self, edge: EdgeId) -> int:
        """``n_e = |ALIVE_e| - c_e`` (may be negative)."""
        k = self._edge_index[edge]
        return self._alive_count_indexed(k) - self._cap[k]

    def constraint_satisfied(self, edge: EdgeId) -> bool:
        """True if the covering constraint of ``edge`` currently holds.

        Satisfied within :data:`SUM_TOLERANCE` (relative), matching the
        termination check of the augmentation loop.
        """
        n_e = self.excess(edge)
        if n_e <= 0:
            return True
        return self.alive_weight_sum(edge) >= n_e * (1.0 - SUM_TOLERANCE)

    def fractional_cost(self) -> float:
        """``sum_i min(f_i, 1) * p_i`` over every registered request."""
        return sum(min(w, 1.0) * self.cost_of(i) for i, w in self.weights().items())

    def fractional_rejections(self) -> Dict[int, float]:
        """Mapping request id -> rejected fraction ``min(f_i, 1)``."""
        return {i: min(w, 1.0) for i, w in self.weights().items()}

    # -- the arrival-level mechanism (shared) ----------------------------------------
    def register(self, request_id: int, edges: Iterable[EdgeId], cost: float) -> None:
        """Register a new request with weight 0, validating edges and cost."""
        edges = tuple(edges)
        index = self._edge_index
        idxs: List[int] = []
        for e in edges:
            k = index.get(e)
            if k is None:
                raise ValueError(f"request {request_id} uses unknown edge {e!r}")
            idxs.append(k)
        cost = check_positive(cost, "cost")
        self._register_indexed(request_id, tuple(idxs), cost)

    def process_arrival(self, request_id: int, edges: Iterable[EdgeId], cost: float) -> ArrivalOutcome:
        """Register an arriving request and restore all its edges' constraints.

        Returns an :class:`ArrivalOutcome` with the per-request weight deltas,
        the kills and the step count — everything the fractional and
        randomized algorithms need.
        """
        self.register(request_id, edges, cost)
        outcome = ArrivalOutcome(request_id=request_id)
        # "The following is performed for all the edges e of the path of r_i,
        #  in an arbitrary order."  We use the registration order of the edges.
        for eidx in self._edge_idxs_of_request(request_id):
            self._restore_edge_indexed(eidx, outcome)
        return outcome

    def process_arrival_indexed(
        self,
        request_id: int,
        edge_idxs: EdgeIndices,
        cost: float,
        record: bool = True,
    ) -> Optional[ArrivalOutcome]:
        """Indexed fast path of :meth:`process_arrival`.

        ``edge_idxs`` are dense edge indices (e.g. a CSR slice of a compiled
        instance) and are trusted to be in range — compilation already
        validated them against the capacity mapping.  With ``record=False``
        no :class:`ArrivalOutcome` is materialized and ``None`` is returned;
        weights, kills and the augmentation counter evolve identically.
        """
        if not cost > 0:
            raise ValueError(f"cost must be > 0, got {cost!r}")
        idxs = self._normalize_indices(edge_idxs)
        self._register_indexed(request_id, idxs, float(cost))
        outcome = ArrivalOutcome(request_id=request_id) if record else None
        for eidx in idxs:
            self._restore_edge_indexed(eidx, outcome)
        return outcome

    def process_capacity_reduction(self, edge: EdgeId, triggered_by: int, amount: int = 1) -> ArrivalOutcome:
        """Reduce an edge's capacity and restore its covering constraint.

        This models a permanently accepted request occupying the edge (the
        ``R_big`` preprocessing and the phase-2 element requests of the
        set-cover reduction): the edge can now host one fewer alive request, so
        weight augmentations may be needed immediately.
        """
        k = self._edge_index.get(edge)
        if k is None:
            raise ValueError(f"unknown edge {edge!r}")
        return self.process_capacity_reduction_batch((k,), triggered_by, amount=amount, record=True)

    def process_capacity_reduction_batch(
        self,
        edge_idxs: EdgeIndices,
        triggered_by: int,
        amount: int = 1,
        record: bool = True,
    ) -> Optional[ArrivalOutcome]:
        """Reduce several edges' capacities and restore their constraints.

        Equivalent to calling :meth:`process_capacity_reduction` per edge in
        order (restoring edge ``e`` only inspects ``e``'s own capacity, so
        decreasing all capacities up front then restoring in order performs
        the exact same float operations), but pays the Python dispatch once.
        With ``record=False`` no outcome is materialized.
        """
        idxs = self._normalize_indices(edge_idxs)
        self._decrease_capacities_indexed(idxs, amount)
        outcome = ArrivalOutcome(request_id=triggered_by) if record else None
        for eidx in idxs:
            self._restore_edge_indexed(eidx, outcome)
        return outcome

    # -- whole-trace executor protocol (see repro.engine.vectorized) -------------------
    def register_batch_indexed(
        self,
        request_ids: Sequence[int],
        costs: np.ndarray,
        flat_edge_idxs: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        """Register a run of requests (weight 0) in arrival order, in one call.

        Request ``r`` carries cost ``costs[r]`` and the dense edge indices
        ``flat_edge_idxs[offsets[r]:offsets[r + 1]]``.  Equivalent to calling
        :meth:`_register_indexed` per request in order, except that a refused
        call (a registered or repeated id) changes nothing;
        :meth:`restore_state` uses it to rebuild a checkpoint's requests.
        """
        self._check_new_ids(request_ids)
        fl = flat_edge_idxs.tolist()
        offs = offsets.tolist()
        for r, rid in enumerate(request_ids):
            self._register_indexed(rid, tuple(fl[offs[r] : offs[r + 1]]), float(costs[r]))

    def process_arrival_block_indexed(
        self,
        request_ids: Sequence[int],
        costs: np.ndarray,
        flat_edge_idxs: np.ndarray,
        offsets: np.ndarray,
        record: bool = False,
    ) -> Tuple[np.ndarray, Optional[List[ArrivalOutcome]]]:
        """:meth:`process_arrival_indexed` over a run of arrivals, in one call.

        The arrivals are laid out like :meth:`register_batch_indexed`'s.
        Returns ``(fractions, outcomes)``: ``float64[k]`` of each request's
        own rejected fraction ``min(f_i, 1)`` captured right after its
        arrival (later arrivals in the same run may grow it further), and
        with ``record`` one :class:`ArrivalOutcome` per arrival (``None``
        without).  This loop over the per-arrival path is the reference;
        :class:`NumpyWeightBackend` overrides it with the room-split kernel.
        Both check every cost and id first, so a refused call changes nothing.
        """
        costs = self._checked_costs(costs)
        self._check_new_ids(request_ids)
        fractions = np.empty(len(request_ids), dtype=np.float64)
        outcomes: Optional[List[ArrivalOutcome]] = [] if record else None
        fl = flat_edge_idxs.tolist()
        offs = offsets.tolist()
        for r, rid in enumerate(request_ids):
            outcome = self.process_arrival_indexed(
                rid, tuple(fl[offs[r] : offs[r + 1]]), float(costs[r]), record=record
            )
            if outcomes is not None:
                outcomes.append(outcome)
            fractions[r] = min(self.weight(rid), 1.0)
        return fractions, outcomes

    # -- checkpoint state (used by the streaming layer) --------------------------------
    def _request_ids_in_order(self) -> List[int]:
        """Registered request ids in registration order (subclasses implement)."""
        raise NotImplementedError

    def _cost_column(self) -> List[float]:
        """Registered requests' costs in registration order (subclasses implement)."""
        raise NotImplementedError

    def _path_columns(self, ids: List[int]) -> Tuple[List[int], List[int]]:
        """The registered paths as CSR ``(indptr, indices)`` lists, rows in ``ids`` order."""
        paths = list(map(self._edge_idxs_of_request, ids))
        return [0, *accumulate(map(len, paths))], list(chain.from_iterable(paths))

    def _dead_rows(self, ids: List[int]) -> List[int]:
        """Positions in ``ids`` (registration order) of the dead requests."""
        is_dead = self.is_dead
        return [row for row, rid in enumerate(ids) if is_dead(rid)]

    def _load_weights(self, weights: np.ndarray) -> None:
        """Overwrite every weight at once: ``weights[r]`` is the ``r``-th registered request's."""
        raise NotImplementedError

    def _mark_dead(self, request_id: int) -> None:
        """Mark a registered request dead, removing it from all alive sets."""
        raise NotImplementedError

    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the mechanism's *logical* state, as columns.

        One row per registered request, in registration order: ``ids``, the
        paths as CSR ``indptr``/``indices`` (dense edge indices), ``cost``
        and ``weight``; ``dead`` lists the rows of the dead requests.  Beside
        them: the current effective capacities, the seed-weight parameters
        and the augmentation counter.  Past :class:`ArrivalOutcome` objects
        are diagnostics, *not* part of the durable state.

        The snapshot is backend-agnostic: a state exported from the python
        backend restores into the numpy backend and vice versa (per-request
        weights are bit-identical across backends; only alive-sum reduction
        order differs, which :data:`SUM_TOLERANCE` absorbs).
        """
        ids = self._request_ids_in_order()
        indptr, indices = self._path_columns(ids)
        return {
            "backend": self.name,
            "g": float(self.g),
            "max_capacity": int(self.max_capacity),
            "num_edges": self.num_edges,
            "capacities": [int(c) for c in self._cap],
            "total_augmentations": int(self.total_augmentations),
            "ids": list(map(int, ids)),
            "indptr": indptr,
            "indices": indices,
            "cost": self._cost_column(),
            "weight": self.weight_array().tolist(),
            "dead": self._dead_rows(ids),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this (fresh) backend.

        Must be called on a newly constructed backend over the *same* edge set
        (same interning order) and seed parameters; the restored mechanism
        then evolves exactly like the one that was snapshotted.  The requests
        are registered in one :meth:`register_batch_indexed` call, their
        weights written in one bulk write, and the dead ones killed last.
        """
        if self._request_ids_in_order():
            raise ValueError("restore_state requires a freshly constructed backend")
        if int(state["num_edges"]) != self.num_edges:
            raise ValueError(
                f"checkpoint has {state['num_edges']} edges, backend has {self.num_edges}"
            )
        if abs(float(state["g"]) - self.g) > 1e-12 * max(self.g, 1.0) or int(
            state["max_capacity"]
        ) != self.max_capacity:
            raise ValueError(
                "checkpoint seed-weight parameters (g, max_capacity) do not match "
                "this backend; was it built from the same capacities?"
            )
        ids = [int(rid) for rid in state["ids"]]
        indptr = np.asarray(state["indptr"], dtype=np.intp)
        indices = np.asarray(state["indices"], dtype=np.intp)
        cost = np.asarray(state["cost"], dtype=np.float64)
        weight = np.asarray(state["weight"], dtype=np.float64)
        n = len(ids)
        if (
            indptr.shape != (n + 1,)
            or cost.shape != (n,)
            or weight.shape != (n,)
            or indptr[0] != 0
            or indptr[-1] != indices.shape[0]
        ):
            raise ValueError("checkpoint weight columns disagree in length")
        if indices.shape[0] and not (0 <= indices.min() and indices.max() < self.num_edges):
            raise ValueError(f"checkpoint paths use edge indices outside [0, {self.num_edges})")
        self._cap = [int(c) for c in state["capacities"]]
        self.total_augmentations = int(state["total_augmentations"])
        self.register_batch_indexed(ids, cost, indices, indptr)
        self._load_weights(weight)
        for row in state["dead"]:
            self._mark_dead(ids[row])

    # -- invariants (used by tests and analysis) ---------------------------------------
    def check_invariants(self) -> List[str]:
        """Return a list of violated invariants (empty when everything holds).

        Checked invariants:

        * weights are non-negative and only ever in ``{0} ∪ [seed, 2]``,
        * dead requests have weight >= 1,
        * every edge's covering constraint holds,
        * alive sets only contain registered, non-dead requests.
        """
        problems: List[str] = []
        all_weights = self.weights()
        # A weight is multiplied at most once after reaching 1, by a factor of
        # at most 1 + 1/p_i, so it never exceeds 1 + 1/min_cost (which is 2
        # for the normalised costs the paper uses).
        min_cost = min((self.cost_of(rid) for rid in all_weights), default=1.0)
        weight_cap = 1.0 + 1.0 / min_cost
        for rid, w in all_weights.items():
            if w < 0:
                problems.append(f"request {rid} has negative weight {w}")
            if 0.0 < w < self.seed_weight * (1.0 - 1e-12):
                problems.append(f"request {rid} has weight {w} below the seed weight")
            if w > weight_cap + 1e-9:
                problems.append(f"request {rid} has weight {w} above {weight_cap}")
            if self.is_dead(rid) and w < 1.0:
                problems.append(f"dead request {rid} has weight {w} < 1")
        for edge in self.edges_seen():
            if not self.constraint_satisfied(edge):
                problems.append(
                    f"edge {edge!r} violates covering constraint: "
                    f"sum={self.alive_weight_sum(edge):.4f} < excess={self.excess(edge)}"
                )
            for rid in self.alive_requests(edge):
                if self.is_dead(rid):
                    problems.append(f"dead request {rid} still alive on edge {edge!r}")
        return problems


@WEIGHT_BACKENDS.register("python")
class PythonWeightBackend(WeightBackend):
    """Scalar reference backend (the paper's pseudocode, one statement per step)."""

    name = "python"

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        g: float,
        max_capacity: Optional[int] = None,
    ):
        super().__init__(capacities, g, max_capacity)
        # Request state.
        self._weights: Dict[int, float] = {}
        self._costs: Dict[int, float] = {}
        self._edge_idxs_by_id: Dict[int, Tuple[int, ...]] = {}
        self._dead: Set[int] = set()

        # Per-edge alive / registered request ids, indexed by dense edge index
        # (``None`` until the edge sees its first request).
        m = len(self._edge_order)
        self._alive_on_edge: List[Optional[Set[int]]] = [None] * m
        self._requests_on_edge: List[Optional[Set[int]]] = [None] * m

    # -- registration -----------------------------------------------------------
    def _register_indexed(self, request_id: int, edge_idxs: Tuple[int, ...], cost: float) -> None:
        if request_id in self._weights:
            raise ValueError(f"request {request_id} already registered")
        self._weights[request_id] = 0.0
        self._costs[request_id] = cost
        self._edge_idxs_by_id[request_id] = edge_idxs
        for k in edge_idxs:
            requests = self._requests_on_edge[k]
            if requests is None:
                self._requests_on_edge[k] = {request_id}
                self._alive_on_edge[k] = {request_id}
            else:
                requests.add(request_id)
                self._alive_on_edge[k].add(request_id)

    # -- queries -----------------------------------------------------------------
    def _edge_idxs_of_request(self, request_id: int) -> Tuple[int, ...]:
        return self._edge_idxs_by_id[request_id]

    def _registered_ids(self) -> KeysView[int]:
        return self._weights.keys()

    def weight(self, request_id: int) -> float:
        return self._weights[request_id]

    def cost_of(self, request_id: int) -> float:
        return self._costs[request_id]

    def weights(self) -> Dict[int, float]:
        return dict(self._weights)

    def weight_array(self) -> np.ndarray:
        return np.fromiter(self._weights.values(), dtype=np.float64, count=len(self._weights))

    def is_dead(self, request_id: int) -> bool:
        return request_id in self._dead

    def _alive_requests_indexed(self, eidx: int) -> Set[int]:
        alive = self._alive_on_edge[eidx]
        return set(alive) if alive else set()

    def _requests_on_indexed(self, eidx: int) -> Set[int]:
        requests = self._requests_on_edge[eidx]
        return set(requests) if requests else set()

    def _request_count_indexed(self, eidx: int) -> int:
        requests = self._requests_on_edge[eidx]
        return len(requests) if requests else 0

    def _alive_count_indexed(self, eidx: int) -> int:
        alive = self._alive_on_edge[eidx]
        return len(alive) if alive else 0

    def _alive_weight_sum_indexed(self, eidx: int) -> float:
        alive = self._alive_on_edge[eidx]
        if not alive:
            return 0.0
        weights = self._weights
        return sum(weights[i] for i in alive)

    def _edges_seen_indexed(self) -> Iterable[int]:
        return [k for k, requests in enumerate(self._requests_on_edge) if requests is not None]

    def fractional_cost(self) -> float:
        return sum(min(w, 1.0) * self._costs[i] for i, w in self._weights.items())

    # -- checkpoint primitives ------------------------------------------------------
    def _request_ids_in_order(self) -> List[int]:
        return list(self._weights)

    def _cost_column(self) -> List[float]:
        return list(self._costs.values())

    def _load_weights(self, weights: np.ndarray) -> None:
        self._weights = dict(zip(self._weights, weights.tolist()))

    def _mark_dead(self, request_id: int) -> None:
        self._kill(request_id)

    # -- the mechanism -------------------------------------------------------------
    def _kill(self, request_id: int) -> None:
        """Mark a request as fully rejected and remove it from all alive sets."""
        self._dead.add(request_id)
        for k in self._edge_idxs_by_id[request_id]:
            self._alive_on_edge[k].discard(request_id)

    def _augment_once(self, eidx: int) -> List[int]:
        """Perform one weight augmentation for edge ``eidx`` (paper steps 2a–2c).

        Returns the ids of the requests the step killed.
        """
        alive = self._alive_on_edge[eidx] or set()
        n_e = len(alive) - self._cap[eidx]
        weights = self._weights
        killed: List[int] = []
        # Step 2a: seed zero weights.
        seed = self.seed_weight
        for rid in alive:
            if weights[rid] == 0.0:
                weights[rid] = seed
        # Step 2b: multiplicative update.  n_e is the excess *before* the update
        # (alive membership has not changed in step 2a).
        costs = self._costs
        for rid in alive:
            factor = 1.0 + 1.0 / (n_e * costs[rid])
            weights[rid] *= factor
        # Step 2c: update ALIVE_e (and the other edges of newly dead requests).
        for rid in list(alive):
            if weights[rid] >= 1.0:
                self._kill(rid)
                killed.append(rid)
        self.total_augmentations += 1
        return killed

    def _restore_edge_indexed(self, eidx: int, outcome: Optional[ArrivalOutcome]) -> None:
        cap = self._cap[eidx]
        weights = self._weights
        while True:
            alive = self._alive_on_edge[eidx]
            n_e = (len(alive) if alive else 0) - cap
            # ``>= n_e`` within SUM_TOLERANCE: the sum is order-dependent in
            # its last ULP, and unit-cost instances land exactly on the
            # threshold — see the SUM_TOLERANCE comment.
            if n_e <= 0 or sum(weights[i] for i in alive) >= n_e * (1.0 - SUM_TOLERANCE):
                break
            if outcome is None:
                self._augment_once(eidx)
                continue
            before = {rid: weights[rid] for rid in alive}
            outcome.newly_dead.update(self._augment_once(eidx))
            outcome.num_augmentations += 1
            deltas = outcome.deltas
            for rid, old in before.items():
                delta = weights[rid] - old
                if delta > 0:
                    deltas[rid] = deltas.get(rid, 0.0) + delta


@WEIGHT_BACKENDS.register("numpy")
class NumpyWeightBackend(WeightBackend):
    """Vectorized backend: contiguous arrays, one NumPy kernel per paper step.

    Storage layout: every registered request gets a dense *slot*.  Its id,
    weight, cost and alive flag live in flat ``int64`` / ``float64`` /
    ``bool`` columns indexed by slot, and its path in a growable CSR pair
    (``_indptr`` / ``_indices``), so a registered request costs no Python
    object beyond its entry in ``_slot``, the one id-keyed dict.  Every
    (interned) edge keeps a growable ``intp`` vector of the slots registered
    on it, plus O(1) alive and registered counters; ``REQ_e`` itself is read
    from the CSR when asked.  One restore is a *fused* loop over
    augmentations:

    * a single gather of the alive slots and their weights on entry,
    * ``w[w == 0] = seed`` (step 2a — only possible on the first iteration),
    * ``w *= 1 + 1 / (n_e * cost)`` with the factor vector cached while the
      alive set is unchanged (step 2b),
    * a ``w >= 1`` kill mask; only when something dies are the killed weights
      scattered back and the in-register vectors filtered (step 2c),
    * one scatter of the surviving weights on exit.

    Every multiplication operates on exactly the values the scalar backend
    produces (scatter/regather round-trips are value-preserving), so results
    match to floating-point rounding.  Edge vectors are compacted lazily once
    dead slots dominate, keeping gathers proportional to ``|ALIVE_e|`` rather
    than ``|REQ_e|``.
    """

    name = "numpy"

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        g: float,
        max_capacity: Optional[int] = None,
    ):
        super().__init__(capacities, g, max_capacity)
        self._slot: Dict[int, int] = {}  # request id -> slot
        self._n = 0  # slots in use
        self._nnz = 0  # CSR path entries in use
        size = 64
        self._ids = np.zeros(size, dtype=np.int64)  # slot -> request id
        self._w = np.zeros(size, dtype=np.float64)
        self._cost = np.ones(size, dtype=np.float64)
        self._alive = np.zeros(size, dtype=bool)
        # Slot s uses the dense edges _indices[_indptr[s]:_indptr[s + 1]].
        self._indptr = np.zeros(size + 1, dtype=np.intp)
        self._indices = np.zeros(4 * size, dtype=np.intp)

        # Per-edge slot vectors (amortised append, lazily compacted) plus O(1)
        # alive and registered counters, so excess checks and the overload
        # guard never touch an array.  All indexed by dense edge index.
        m = len(self._edge_order)
        self._edge_slots: List[Optional[np.ndarray]] = [None] * m
        self._edge_used: List[int] = [0] * m
        self._edge_alive: List[int] = [0] * m
        self._edge_registered: List[int] = [0] * m

    # -- storage helpers -----------------------------------------------------------
    def _ensure_room(self, rows: int, entries: int) -> None:
        """Grow the slot columns and the CSR entries until ``rows`` more requests
        with ``entries`` path entries between them fit."""
        need = self._n + rows
        if need > len(self._w):
            self._ids = _with_room(self._ids, need)
            self._w = _with_room(self._w, need)
            self._cost = _with_room(self._cost, need)
            self._alive = _with_room(self._alive, need)
            self._indptr = _with_room(self._indptr, len(self._w) + 1)
        self._indices = _with_room(self._indices, self._nnz + entries)

    def _edge_append(self, eidx: int, slot: int) -> None:
        arr = self._edge_slots[eidx]
        if arr is None:
            arr = np.empty(8, dtype=np.intp)
            self._edge_slots[eidx] = arr
            self._edge_used[eidx] = 0
        used = self._edge_used[eidx]
        if used == arr.shape[0]:
            # max() guards the used == 0 case: compaction can shrink a fully
            # dead edge's vector to length zero, and 2 * 0 would never grow.
            grown = np.empty(max(8, 2 * used), dtype=np.intp)
            grown[:used] = arr[:used]
            self._edge_slots[eidx] = arr = grown
        arr[used] = slot
        self._edge_used[eidx] = used + 1

    def _alive_slots(self, eidx: int) -> np.ndarray:
        """Alive slots on edge ``eidx``, compacting when dead slots dominate."""
        arr = self._edge_slots[eidx]
        if arr is None:
            return np.empty(0, dtype=np.intp)
        view = arr[: self._edge_used[eidx]]
        idx = view[self._alive[view]]
        if idx.shape[0] * 2 < view.shape[0]:
            # Dead slots never revive, so dropping them is safe and keeps the
            # next gather proportional to the alive count.
            compacted = idx.copy()
            self._edge_slots[eidx] = compacted
            self._edge_used[eidx] = compacted.shape[0]
            return compacted
        return idx

    def _path_of_slot(self, slot: int) -> np.ndarray:
        """The dense edge indices of slot ``slot``'s path (a view of the CSR)."""
        return self._indices[self._indptr[slot] : self._indptr[slot + 1]]

    # -- registration -----------------------------------------------------------
    def _register_indexed(self, request_id: int, edge_idxs: Tuple[int, ...], cost: float) -> None:
        if request_id in self._slot:
            raise ValueError(f"request {request_id} already registered")
        slot = self._n
        lo = self._nnz
        hi = lo + len(edge_idxs)
        # len() rather than .shape: this runs once per arrival.
        if slot == len(self._ids) or hi > len(self._indices):
            self._ensure_room(1, hi - lo)
        # The id first: one that overflows the int64 column changes nothing.
        self._ids[slot] = request_id
        self._n = slot + 1
        self._nnz = hi
        self._slot[request_id] = slot
        self._w[slot] = 0.0
        self._cost[slot] = cost
        self._alive[slot] = True
        self._indices[lo:hi] = edge_idxs
        self._indptr[slot + 1] = hi
        edge_alive = self._edge_alive
        edge_registered = self._edge_registered
        for k in edge_idxs:
            self._edge_append(k, slot)
            edge_alive[k] += 1
            edge_registered[k] += 1

    def _edge_extend(self, eidx: int, slots: np.ndarray) -> None:
        """Append a run of slots to an edge's vector (amortised growth)."""
        k = slots.shape[0]
        arr = self._edge_slots[eidx]
        used = self._edge_used[eidx] if arr is not None else 0
        need = used + k
        if arr is None or need > arr.shape[0]:
            grown = np.empty(max(8, 2 * need), dtype=np.intp)
            if used:
                grown[:used] = arr[:used]
            self._edge_slots[eidx] = arr = grown
        arr[used:need] = slots
        self._edge_used[eidx] = need

    def _add_rows(
        self,
        request_ids: Sequence[int],
        costs: np.ndarray,
        flat_edge_idxs: np.ndarray,
        offsets: np.ndarray,
    ) -> int:
        """Write a run of new requests' slot rows and CSR paths at once, in arrival order.

        Every id is checked first (:meth:`_check_new_ids`), so a refused run
        changes nothing.  The rows start at weight 0, alive; no edge vector is
        touched.  ``offsets`` starts at 0 and ``flat_edge_idxs`` holds exactly
        the run's path entries, as every caller builds them.  Returns the
        run's first slot.
        """
        self._check_new_ids(request_ids)
        k = len(request_ids)
        entries = flat_edge_idxs.shape[0]
        self._ensure_room(k, entries)
        base = self._n
        self._n = base + k
        nnz = self._nnz
        self._nnz = nnz + entries
        self._ids[base : base + k] = request_ids
        self._w[base : base + k] = 0.0
        self._cost[base : base + k] = costs
        self._alive[base : base + k] = True
        self._indices[nnz : nnz + entries] = flat_edge_idxs
        self._indptr[base + 1 : base + k + 1] = offsets[1:] + nnz
        self._slot.update(zip(request_ids, range(base, base + k)))
        return base

    def _append_by_edge(
        self,
        entry_edges: np.ndarray,
        entry_rows: np.ndarray,
        base: int,
        cold_only: bool = False,
    ) -> np.ndarray:
        """Append a run's path entries to their edges, grouped per edge.

        Entry ``t`` puts row ``entry_rows[t]`` of the run (slot ``base +
        entry_rows[t]``) on edge ``entry_edges[t]``; entries are in arrival
        order.  A stable sort by edge keeps each edge's entries in that
        order, so the slot vectors are byte-identical to per-entry
        :meth:`_edge_append` calls.  With ``cold_only`` an edge takes only
        its first ``max(cap - alive, 0)`` entries, the ones that cannot put
        it over capacity; the positions of the rest (the *hot* entries) are
        returned in arrival order.  Otherwise every entry is appended and
        the result is empty.
        """
        # A stable sort has one result; on 16-bit keys numpy's is a radix sort.
        keys = entry_edges.astype(np.uint16) if self.num_edges <= 1 << 16 else entry_edges
        order = np.argsort(keys, kind="stable")
        sorted_edges = entry_edges[order]
        sorted_slots = entry_rows[order] + base
        bounds = (np.flatnonzero(np.diff(sorted_edges)) + 1).tolist()
        starts = [0, *bounds]
        stops = [*bounds, sorted_edges.shape[0]]
        cap = self._cap
        edge_alive = self._edge_alive
        edge_registered = self._edge_registered
        hot: List[np.ndarray] = []
        for eidx, lo, hi in zip(sorted_edges[starts].tolist(), starts, stops):
            if cold_only:
                cold_end = lo + max(cap[eidx] - edge_alive[eidx], 0)
                if cold_end < hi:
                    hot.append(order[cold_end:hi])
                    hi = cold_end
                    if hi == lo:
                        continue
            self._edge_extend(eidx, sorted_slots[lo:hi])
            edge_alive[eidx] += hi - lo
            edge_registered[eidx] += hi - lo
        if not hot:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(hot))

    def register_batch_indexed(
        self,
        request_ids: Sequence[int],
        costs: np.ndarray,
        flat_edge_idxs: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        k = len(request_ids)
        if k == 0:
            return
        base = self._add_rows(request_ids, costs, flat_edge_idxs, offsets)
        rows = np.repeat(np.arange(k, dtype=np.intp), np.diff(offsets))
        self._append_by_edge(flat_edge_idxs, rows, base)

    # -- queries -----------------------------------------------------------------
    def _edge_idxs_of_request(self, request_id: int) -> Tuple[int, ...]:
        return tuple(self._path_of_slot(self._slot[request_id]).tolist())

    def _registered_ids(self) -> KeysView[int]:
        return self._slot.keys()

    def weight(self, request_id: int) -> float:
        return float(self._w[self._slot[request_id]])

    def cost_of(self, request_id: int) -> float:
        return float(self._cost[self._slot[request_id]])

    def weights(self) -> Dict[int, float]:
        n = self._n
        return dict(zip(self._ids[:n].tolist(), self._w[:n].tolist()))

    def weight_array(self) -> np.ndarray:
        return self._w[: self._n]

    def is_dead(self, request_id: int) -> bool:
        slot = self._slot.get(request_id)
        return slot is not None and not self._alive[slot]

    def _alive_requests_indexed(self, eidx: int) -> Set[int]:
        return set(self._ids[self._alive_slots(eidx)].tolist())

    def _requests_on_indexed(self, eidx: int) -> Set[int]:
        entries = np.flatnonzero(self._indices[: self._nnz] == eidx)
        # Entry t belongs to the slot s with indptr[s] <= t < indptr[s + 1].
        slots = np.searchsorted(self._indptr[1 : self._n + 1], entries, side="right")
        return set(self._ids[slots].tolist())

    def _request_count_indexed(self, eidx: int) -> int:
        return self._edge_registered[eidx]

    def _alive_count_indexed(self, eidx: int) -> int:
        return self._edge_alive[eidx]

    def _alive_weight_sum_indexed(self, eidx: int) -> float:
        return float(self._w[self._alive_slots(eidx)].sum())

    def _edges_seen_indexed(self) -> Iterable[int]:
        return [k for k, count in enumerate(self._edge_registered) if count]

    def fractional_cost(self) -> float:
        n = self._n
        if n == 0:
            return 0.0
        w = self._w[:n]
        return float((np.minimum(w, 1.0) * self._cost[:n]).sum())

    def fractional_rejections(self) -> Dict[int, float]:
        n = self._n
        return dict(zip(self._ids[:n].tolist(), np.minimum(self._w[:n], 1.0).tolist()))

    # -- checkpoint primitives ------------------------------------------------------
    def _request_ids_in_order(self) -> List[int]:
        return self._ids[: self._n].tolist()

    def _cost_column(self) -> List[float]:
        return self._cost[: self._n].tolist()

    def _path_columns(self, ids: List[int]) -> Tuple[List[int], List[int]]:
        return self._indptr[: self._n + 1].tolist(), self._indices[: self._nnz].tolist()

    def _dead_rows(self, ids: List[int]) -> List[int]:
        return np.flatnonzero(~self._alive[: self._n]).tolist()

    def _load_weights(self, weights: np.ndarray) -> None:
        self._w[: self._n] = weights

    def _mark_dead(self, request_id: int) -> None:
        self._kill_slot(self._slot[request_id])

    # -- the mechanism -------------------------------------------------------------
    def _kill_slot(self, slot: int) -> None:
        self._alive[slot] = False
        edge_alive = self._edge_alive
        for k in self._path_of_slot(slot).tolist():
            edge_alive[k] -= 1

    def _restore_edge_indexed(self, eidx: int, outcome: Optional[ArrivalOutcome]) -> None:
        cap = self._cap[eidx]
        # O(1) excess check via the per-edge alive counter before paying for
        # the gather (most edges are under capacity most of the time).
        if self._edge_alive[eidx] - cap <= 0:
            return
        if outcome is None:
            self._restore_edge_norecord(eidx, cap)
            return
        # The alive set only shrinks during a restore, so the slots alive on
        # entry cover every slot it touches: one before/after difference
        # yields the per-request deltas and kills of the whole restore.
        idx = self._alive_slots(eidx)
        before = self._w[idx]
        augmentations = self.total_augmentations
        self._restore_edge_norecord(eidx, cap)
        outcome.num_augmentations += self.total_augmentations - augmentations
        ids = self._ids
        diff = self._w[idx] - before
        changed = np.flatnonzero(diff > 0.0)
        deltas = outcome.deltas
        for rid, delta in zip(ids[idx[changed]].tolist(), diff[changed].tolist()):
            deltas[rid] = deltas.get(rid, 0.0) + delta
        outcome.newly_dead.update(ids[idx[~self._alive[idx]]].tolist())

    # -- whole-trace block kernel (see repro.engine.vectorized) ------------------------
    def _restore_edge_norecord(self, eidx: int, cap: int) -> None:
        """The restore kernel: augment edge ``eidx`` until its constraint holds.

        Every restore runs here; :meth:`_restore_edge_indexed` derives a
        recorded outcome from the weights before and after.  Instead of a
        per-iteration ``w.max()`` reduction the kill check tracks a scalar
        upper bound ``ub' = ub * max(factor)``: IEEE-754 rounding is
        monotone, so the tracked bound never falls below the true maximum and
        the real reduction only runs when the bound crosses 1 — which is
        exactly when a kill is possible.
        """
        idx = self._alive_slots(eidx)
        w = self._w[idx]
        n_e = int(idx.shape[0]) - cap
        add_reduce = np.add.reduce
        max_reduce = np.maximum.reduce
        multiply = np.multiply
        slack = 1.0 - SUM_TOLERANCE
        if add_reduce(w) >= n_e * slack:
            return
        # Step 2a: zeros are only possible before the first multiply of a
        # restore (afterwards every alive weight on the edge is positive).
        zero_mask = w == 0.0
        if zero_mask.any():
            w[zero_mask] = self.seed_weight
        cost_idx = self._cost[idx]
        factor: Optional[np.ndarray] = None
        fmax = 1.0
        ub = float(max_reduce(w))
        augmentations = 0
        while True:
            # Step 2b: the factor vector depends only on n_e and the alive
            # costs, so it is reused verbatim until a kill changes either.
            if factor is None:
                factor = 1.0 + 1.0 / (n_e * cost_idx)
                fmax = float(max_reduce(factor))
            multiply(w, factor, out=w)
            augmentations += 1
            ub *= fmax
            if ub >= 1.0:
                true_max = float(max_reduce(w))
                if true_max >= 1.0:
                    kill_mask = w >= 1.0
                    killed_slots = idx[kill_mask]
                    self._w[killed_slots] = w[kill_mask]
                    for slot in killed_slots.tolist():
                        self._kill_slot(slot)
                    keep = ~kill_mask
                    idx = idx[keep]
                    w = w[keep]
                    cost_idx = cost_idx[keep]
                    factor = None
                    ub = float(max_reduce(w)) if w.shape[0] else 0.0
                else:
                    ub = true_max
            n_e = int(idx.shape[0]) - cap
            if n_e <= 0:
                break
            if add_reduce(w) >= n_e * slack:
                break
        self.total_augmentations += augmentations
        if idx.shape[0]:
            self._w[idx] = w

    def process_arrival_block_indexed(
        self,
        request_ids: Sequence[int],
        costs: np.ndarray,
        flat_edge_idxs: np.ndarray,
        offsets: np.ndarray,
        record: bool = False,
    ) -> Tuple[np.ndarray, Optional[List[ArrivalOutcome]]]:
        """The room-split kernel: step only the path entries that can overflow.

        An arrival does weight work on edge ``e`` only while ``|ALIVE_e| >
        c_e``.  Within one call capacities are fixed and kills only lower
        ``|ALIVE_e|``, so each edge's first ``max(c_e - |ALIVE_e|, 0)``
        entries of the call are *cold*: they never start a restore.  After
        checking every id and cost, the kernel writes all slot rows in
        arrival order and appends the cold entries per edge, then walks the
        *hot* entries in arrival order: per arrival it appends its hot
        entries, then screens and restores its hot edges in path order.  A
        hot entry's edge then holds exactly the slots the per-arrival loop
        would hold, in the same order (the cold prefix, then the hot entries
        so far), so every restore sums the same weights in the same order.
        An early slot sits in no gathered vector before its arrival, so an
        arrival without hot entries has fraction exactly 0 and, with
        ``record``, an empty outcome.  Exactly equivalent to per-arrival
        :meth:`process_arrival_indexed` calls, except that a refused call (a
        registered or repeated id, a cost not above 0) changes nothing.
        """
        k = len(request_ids)
        costs = self._checked_costs(costs)
        fractions = np.zeros(k, dtype=np.float64)
        outcomes = [ArrivalOutcome(request_id=rid) for rid in request_ids] if record else None
        if k == 0:
            return fractions, outcomes
        base = self._add_rows(request_ids, costs, flat_edge_idxs, offsets)
        rows = np.repeat(np.arange(k, dtype=np.intp), np.diff(offsets))
        hot = self._append_by_edge(flat_edge_idxs, rows, base, cold_only=True)
        if not hot.shape[0]:
            return fractions, outcomes
        hot_rows = rows[hot]
        hot_edges = flat_edge_idxs[hot].tolist()
        bounds = (np.flatnonzero(np.diff(hot_rows)) + 1).tolist()
        starts = [0, *bounds]
        stops = [*bounds, len(hot_edges)]
        w = self._w
        cap = self._cap
        edge_alive = self._edge_alive
        edge_registered = self._edge_registered
        for r, lo, hi in zip(hot_rows[starts].tolist(), starts, stops):
            slot = base + r
            path = hot_edges[lo:hi]
            for e in path:
                self._edge_append(e, slot)
                edge_alive[e] += 1
                edge_registered[e] += 1
            if outcomes is not None:
                outcome = outcomes[r]
                for e in path:
                    self._restore_edge_indexed(e, outcome)
            else:
                for e in path:
                    cap_e = cap[e]
                    if edge_alive[e] - cap_e > 0:
                        self._restore_edge_norecord(e, cap_e)
            f = w[slot]
            fractions[r] = f if f < 1.0 else 1.0
        return fractions, outcomes


def resolve_backend_name(spec: BackendSpec) -> str:
    """Normalise a backend spec (``None`` / name / :class:`EngineConfig`) to a name."""
    if spec is None:
        return EngineConfig().backend
    if isinstance(spec, EngineConfig):
        return spec.backend
    if isinstance(spec, str):
        return spec.strip().lower()
    raise TypeError(f"backend must be None, a name or an EngineConfig, got {spec!r}")


def make_weight_backend(
    spec: BackendSpec,
    capacities: Mapping[EdgeId, int],
    *,
    g: float,
    max_capacity: Optional[int] = None,
) -> WeightBackend:
    """Instantiate the weight backend selected by ``spec``.

    ``spec`` may be ``None`` (the default ``"python"`` reference backend), a
    registered backend name, or an :class:`EngineConfig` whose ``backend``
    field names one.
    """
    factory = WEIGHT_BACKENDS.get(resolve_backend_name(spec))
    return factory(capacities, g=g, max_capacity=max_capacity)
