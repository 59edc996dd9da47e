"""Deterministic bicriteria online set cover with repetitions (paper, Section 5).

Given a constant ``eps > 0`` the algorithm guarantees, at every point in time,
that an element requested ``k`` times so far is covered by at least
``(1 - eps) k`` distinct sets, while buying at most ``O(log m log n)`` times
the number of sets the optimum (which covers every element fully, ``k`` times)
uses — Theorem 7.

Algorithm (one arrival of element ``j``, requested for the ``k``-th time):

1. if ``cover_j >= (1 - eps) k`` do nothing;
2. otherwise, while ``cover_j < (1 - eps) k`` perform a *weight augmentation*:

   a. multiply the weight of every set containing ``j`` that is not yet in the
      cover by ``1 + 1/(2k)`` (weights start at ``1/(2m)``);
   b. add to the cover every set whose weight reached 1;
   c. add at most ``2 ln n`` further sets from ``S_j`` so that the potential

          Phi = sum_{j' in X} n^{2 (w_{j'} - cover_{j'})}

      does not exceed its value before the augmentation.

Step 2c is derandomised with the method of conditional expectations: the
random process of Lemma 6 (repeat ``2 ln n`` times, pick set ``S`` with
probability ``2 delta_S``) admits the pessimistic estimator computed in
:meth:`BicriteriaOnlineSetCover._select_sets`, and greedily choosing the
option that minimises the estimator keeps it non-increasing, which in turn
keeps the true potential below its pre-augmentation value.

The paper assumes unit set costs in this section; the implementation enforces
that by default (``allow_weighted=True`` lifts the check and simply runs the
same algorithm, without a guarantee — see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.protocols import InfeasibleArrivalError, OnlineSetCoverAlgorithm
from repro.engine.backends import BackendSpec, resolve_backend_name
from repro.engine.registry import SETCOVER_ALGORITHMS
from repro.instances.setcover import ElementId, SetCoverInstance, SetId, SetSystem
from repro.utils.validation import check_in_range

__all__ = ["BicriteriaOnlineSetCover", "AugmentationTrace"]


@dataclass(frozen=True)
class AugmentationTrace:
    """Diagnostics for one weight augmentation (used by experiment E7)."""

    element: ElementId
    k: int
    potential_before: float
    potential_after: float
    sets_from_threshold: Tuple[SetId, ...]
    sets_from_selection: Tuple[SetId, ...]


class BicriteriaOnlineSetCover(OnlineSetCoverAlgorithm):
    """Deterministic ``O(log m log n)``-competitive bicriteria online set cover.

    Parameters
    ----------
    system:
        The set system (known in advance, as in the paper).
    eps:
        Bicriteria slack: each element requested ``k`` times is covered at
        least ``(1 - eps) k`` times.  Must lie strictly between 0 and 1.
    on_infeasible:
        What to do when an element is requested more times than the number of
        sets containing it (even full coverage is impossible): ``"raise"``
        (default) raises :class:`InfeasibleArrivalError`, ``"clamp"`` lowers
        the target to the element's degree.
    allow_weighted:
        Permit non-unit set costs (no guarantee; the paper's Section 5 assumes
        unit costs).
    track_potentials:
        Record an :class:`AugmentationTrace` per augmentation (cheap; on by
        default so experiments can verify Lemma 6).
    backend:
        Execution backend selected via an
        :class:`~repro.engine.config.EngineConfig` or a backend name.  With
        ``"numpy"`` the set weights live in a contiguous array and the
        multiplicative update, element weights and the Lemma-6 potential are
        evaluated as vectorized operations over a precomputed element-set
        incidence; ``"python"`` (the default) keeps the scalar dict-based
        reference path.
    """

    def __init__(
        self,
        system: SetSystem,
        eps: float = 0.1,
        *,
        on_infeasible: str = "raise",
        allow_weighted: bool = False,
        track_potentials: bool = True,
        backend: BackendSpec = None,
        name: Optional[str] = None,
    ):
        super().__init__(system, name=name)
        self.eps = check_in_range(eps, "eps", 1e-9, 1.0 - 1e-9)
        if on_infeasible not in ("raise", "clamp"):
            raise ValueError("on_infeasible must be 'raise' or 'clamp'")
        self.on_infeasible = on_infeasible
        if not allow_weighted and not system.is_unit_cost():
            raise ValueError(
                "the bicriteria algorithm assumes unit set costs "
                "(pass allow_weighted=True to run it anyway, without a guarantee)"
            )
        self.track_potentials = bool(track_potentials)

        self.m = system.num_sets
        self.n = system.num_elements
        #: base of the potential function; guarded at 2 so tiny instances stay well defined.
        self._nn = max(self.n, 2)
        #: number of selection rounds in step 2c (the paper's ``2 log n``).
        self.selection_rounds = max(1, math.ceil(2.0 * math.log(self._nn)))

        self.backend = resolve_backend_name(backend)
        self._vectorized = self.backend == "numpy"
        if self._vectorized:
            # Contiguous set-weight vector plus the element-set incidence as
            # index arrays: step 2a becomes one fancy-indexed multiply and the
            # element weight / potential sums become array reductions.
            self._set_order: List[SetId] = list(system.set_ids())
            self._set_index: Dict[SetId, int] = {sid: k for k, sid in enumerate(self._set_order)}
            self._wv = np.full(self.m, 1.0 / (2.0 * self.m), dtype=np.float64)
            #: dense chosen mask so candidate selection never hashes set ids.
            self._chosen_mask = np.zeros(self.m, dtype=bool)
            self._element_order: List[ElementId] = list(system.elements())
            self._elem_sets: Dict[ElementId, np.ndarray] = {
                j: np.fromiter(
                    (self._set_index[sid] for sid in system.sets_containing(j)),
                    dtype=np.intp,
                    count=system.degree(j),
                )
                for j in self._element_order
            }
            self._w: Dict[SetId, float] = {}
            # Element-by-set incidence, so the potential's element weights are
            # one sparse product (a SetSystem has at least one non-empty set).
            from scipy import sparse

            lengths = [self._elem_sets[j].shape[0] for j in self._element_order]
            rows = np.repeat(np.arange(len(self._element_order), dtype=np.intp), lengths)
            cols = np.concatenate([self._elem_sets[j] for j in self._element_order])
            self._incidence = sparse.csr_matrix(
                (np.ones(rows.shape[0]), (rows, cols)),
                shape=(len(self._element_order), self.m),
            )
        else:
            #: set weights ``w_S`` (initialised to ``1/(2m)``).
            self._w = {sid: 1.0 / (2.0 * self.m) for sid in system.set_ids()}

        # Diagnostics.
        self.num_augmentations = 0
        self.num_threshold_purchases = 0
        self.num_selection_purchases = 0
        self.max_potential_seen = self.potential()
        self.traces: List[AugmentationTrace] = []

    def _purchase(self, set_id: SetId) -> bool:
        """Buy a set, keeping the vectorized chosen mask in sync."""
        bought = super()._purchase(set_id)
        if bought and self._vectorized:
            self._chosen_mask[self._set_index[set_id]] = True
        return bought

    # -- potentials ---------------------------------------------------------------
    def set_weight(self, set_id: SetId) -> float:
        """Current weight ``w_S`` of a set."""
        if self._vectorized:
            return float(self._wv[self._set_index[set_id]])
        return self._w[set_id]

    def set_weights(self) -> Dict[SetId, float]:
        """Copy of all set weights (backend-independent view)."""
        if self._vectorized:
            return {sid: float(self._wv[k]) for k, sid in enumerate(self._set_order)}
        return dict(self._w)

    def element_weight(self, element: ElementId) -> float:
        """``w_j = sum_{S ni j} w_S``."""
        if self._vectorized:
            return float(self._wv[self._elem_sets[element]].sum())
        return sum(self._w[sid] for sid in self.system.sets_containing(element))

    def potential(self) -> float:
        """The Lemma-6 potential ``Phi = sum_j n^{2 (w_j - cover_j)}``."""
        if self._vectorized:
            if not self._element_order:
                return 0.0
            wj = self._incidence @ self._wv
            cover = np.fromiter(
                (self._coverage[j] for j in self._element_order),
                dtype=np.float64,
                count=len(self._element_order),
            )
            return float((float(self._nn) ** (2.0 * (wj - cover))).sum())
        total = 0.0
        for element in self.system.elements():
            exponent = 2.0 * (self.element_weight(element) - self._coverage[element])
            total += self._nn ** exponent
        return total

    # -- main entry point -----------------------------------------------------------
    def process_element(self, element: ElementId) -> FrozenSet[SetId]:
        """Handle one arrival of ``element`` and return the newly purchased sets."""
        k = self._register_arrival(element)
        containing = self.system.sets_containing(element)
        target = (1.0 - self.eps) * k
        if target > len(containing) + 1e-12:
            if self.on_infeasible == "raise":
                raise InfeasibleArrivalError(
                    f"element {element!r} requested {k} times but only "
                    f"{len(containing)} sets contain it"
                )
            target = float(len(containing))

        purchased: Set[SetId] = set()
        # Step 2: augment until the bicriteria coverage target is met.
        while self._coverage[element] < target - 1e-12:
            purchased |= self._augment(element, k)
        return frozenset(purchased)

    # -- one weight augmentation -------------------------------------------------------
    def _augment(self, element: ElementId, k: int) -> Set[SetId]:
        """Perform one weight augmentation (steps 2a–2c) for ``element``."""
        potential_before = self.potential() if self.track_potentials else 0.0

        # Step 2a: multiplicative weight update for sets not yet in the cover.
        deltas: Dict[SetId, float] = {}
        if self._vectorized:
            # Compiled path: the element's containing sets are a precomputed
            # index vector and the chosen mask is dense, so candidate
            # selection and the update never hash a set id.
            member_idx = self._elem_sets[element]
            cand_idx = member_idx[~self._chosen_mask[member_idx]]
            candidates = [self._set_order[j] for j in cand_idx.tolist()]
            if candidates:
                old = self._wv[cand_idx]
                updated = old * (1.0 + 1.0 / (2.0 * k))
                self._wv[cand_idx] = updated
                deltas = dict(zip(candidates, (updated - old).tolist()))
        else:
            containing = self.system.sets_containing(element)
            candidates = [sid for sid in containing if sid not in self._chosen]
            for sid in candidates:
                old = self._w[sid]
                self._w[sid] = old * (1.0 + 1.0 / (2.0 * k))
                deltas[sid] = self._w[sid] - old

        # Snapshot the pre-2b coverage of every affected element: the
        # pessimistic estimator of step 2c is expressed relative to it.
        affected: Set[ElementId] = set()
        for sid, delta in deltas.items():
            if delta > 0:
                affected |= self.system.members(sid)
        coverage_before: Dict[ElementId, int] = {j: self._coverage[j] for j in affected}

        # Step 2b: buy every set whose weight reached 1.
        threshold_purchases: List[SetId] = []
        for sid in candidates:
            if self.set_weight(sid) >= 1.0 and sid not in self._chosen:
                self._purchase(sid)
                threshold_purchases.append(sid)
                self.num_threshold_purchases += 1

        # Step 2c: derandomised selection of at most ``2 ln n`` extra sets.
        selection_purchases = self._select_sets(deltas, affected, coverage_before)
        self.num_selection_purchases += len(selection_purchases)

        self.num_augmentations += 1
        if self.track_potentials:
            potential_after = self.potential()
            self.max_potential_seen = max(self.max_potential_seen, potential_after, potential_before)
            self.traces.append(
                AugmentationTrace(
                    element=element,
                    k=k,
                    potential_before=potential_before,
                    potential_after=potential_after,
                    sets_from_threshold=tuple(threshold_purchases),
                    sets_from_selection=tuple(selection_purchases),
                )
            )
        return set(threshold_purchases) | set(selection_purchases)

    # -- derandomised selection (method of conditional expectations) ----------------------
    def _select_sets(
        self,
        deltas: Mapping[SetId, float],
        affected: Set[ElementId],
        coverage_before: Mapping[ElementId, int],
    ) -> List[SetId]:
        """Choose at most ``selection_rounds`` sets keeping the potential non-increasing.

        The pessimistic estimator follows Lemma 6's proof.  For every element
        ``j'`` whose weight increased (``delta_{j'} > 0``) define, with the
        pre-augmentation weight ``w`` and pre-augmentation coverage ``cover``
        (both captured before step 2b):

        * ``N_{j'} = n^{2 (w + delta - cover)}`` — its potential contribution if
          no newly purchased set contains it;
        * ``H_{j'} = n^{2 (w - cover) - 1}`` — an upper bound on its
          contribution once some set purchased during this augmentation
          contains it (valid because ``2 delta_{j'} <= 1`` and the coverage
          then increased by at least one).

        With ``r`` selection rounds remaining, an element not yet hit
        contributes ``(1 - q)^r N + (1 - (1 - q)^r) H`` to the estimator where
        ``q = 2 delta_{j'}``; a hit element contributes ``H``.  Elements
        already covered by a step-2b purchase start as hit.  The estimator's
        initial value is at most the pre-augmentation potential and never
        increases when we greedily choose the option (a candidate set, or
        nothing) of minimum conditional expectation, so the final true
        potential does not exceed the pre-augmentation one.
        """
        nn = self._nn
        # Candidate sets still purchasable, with positive selection probability.
        candidates = [sid for sid, d in deltas.items() if d > 0 and sid not in self._chosen]

        # Per-element quantities, relative to the pre-2b snapshot.
        delta_of: Dict[ElementId, float] = {}
        not_hit_value: Dict[ElementId, float] = {}
        hit_value: Dict[ElementId, float] = {}
        hit: Dict[ElementId, bool] = {}
        for j in affected:
            delta_j = sum(deltas.get(sid, 0.0) for sid in self.system.sets_containing(j))
            w_new = self.element_weight(j)
            w_old = w_new - delta_j
            cover = coverage_before[j]
            not_hit_value[j] = nn ** (2.0 * (w_new - cover))
            hit_value[j] = nn ** (2.0 * (w_old - cover) - 1.0)
            delta_of[j] = delta_j
            # Elements covered by a 2b purchase count as hit from the start.
            hit[j] = self._coverage[j] > cover

        def pending_value(j: ElementId, rounds_left: int) -> float:
            """Estimator contribution of a not-yet-hit element with ``rounds_left`` rounds."""
            q = min(1.0, 2.0 * delta_of[j])
            stay = (1.0 - q) ** rounds_left
            return stay * not_hit_value[j] + (1.0 - stay) * hit_value[j]

        chosen_now: List[SetId] = []
        for round_index in range(self.selection_rounds):
            if not candidates:
                break
            rounds_left = self.selection_rounds - round_index - 1
            # Gain of choosing set S = total estimator decrease versus choosing nothing.
            best_set: Optional[SetId] = None
            best_gain = 0.0
            for sid in candidates:
                gain = 0.0
                for j in self.system.members(sid):
                    if not hit[j]:
                        gain += pending_value(j, rounds_left) - hit_value[j]
                if gain > best_gain + 1e-18:
                    best_gain = gain
                    best_set = sid
            if best_set is None:
                # Choosing nothing is (weakly) optimal for all remaining rounds.
                break
            self._purchase(best_set)
            chosen_now.append(best_set)
            candidates.remove(best_set)
            for j in self.system.members(best_set):
                if j in hit:
                    hit[j] = True
        return chosen_now

    # -- reporting -------------------------------------------------------------------------
    def bicriteria_satisfied(self) -> bool:
        """True if every element meets its ``(1 - eps) k`` coverage target."""
        return all(
            self._coverage[element] >= (1.0 - self.eps) * demand - 1e-9
            for element, demand in self._demands.items()
        )

    def extra_metrics(self) -> Dict[str, float]:
        """Diagnostics merged into the :class:`~repro.core.protocols.SetCoverResult`."""
        return {
            "eps": self.eps,
            "num_augmentations": self.num_augmentations,
            "threshold_purchases": self.num_threshold_purchases,
            "selection_purchases": self.num_selection_purchases,
            "selection_rounds": self.selection_rounds,
            "max_potential_seen": self.max_potential_seen,
            "potential_bound": float(self._nn**2),
            "bicriteria_satisfied": self.bicriteria_satisfied(),
        }

    # -- conveniences -----------------------------------------------------------------------
    @classmethod
    def for_instance(cls, instance: SetCoverInstance, eps: float = 0.1, **kwargs) -> "BicriteriaOnlineSetCover":
        """Construct the algorithm for a concrete instance's set system."""
        return cls(instance.system, eps=eps, **kwargs)


@SETCOVER_ALGORITHMS.register("bicriteria")
def _build_bicriteria(instance, *, random_state=None, backend=None, **kwargs):
    """Registry builder: the deterministic Section-5 bicriteria algorithm."""
    return BicriteriaOnlineSetCover.for_instance(instance, backend=backend, **kwargs)
