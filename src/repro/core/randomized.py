"""The randomized online admission-control algorithm (paper, Section 3).

The randomized algorithm runs the Section-2 fractional algorithm as a shadow
and rounds its weight *increases* into actual rejections:

1. perform the shadow's weight augmentations for the arriving request;
2. reject (preempt) every request whose weight reached ``1 / (K log(mc))``;
3. for every request whose weight increased by ``delta`` during this arrival,
   reject it with probability ``K * delta * log(mc)``;
4. accept the arriving request if it still fits within every edge capacity,
   otherwise reject it.

``K = 12`` and ``log(mc)`` in the weighted case (Theorem 3,
``O(log^2(mc))``-competitive); ``K = 4`` and ``log m`` in the unweighted case
(Theorem 4, ``O(log m log c)``-competitive).  Both constants are exposed as
parameters so the ablation experiment can vary them.

The implementation also supports two practical extensions used elsewhere in
the library (neither is part of the paper's algorithm):

* *forced acceptances* — requests whose tag is listed in ``force_accept_tags``
  are always accepted and treated like the paper's ``R_big`` class (their
  edges' effective capacities are reserved).  The set-cover reduction of
  Section 4 relies on this to guarantee that only phase-1 (set) requests are
  ever rejected.  If a forced acceptance overloads an edge, additional alive
  requests on that edge are preempted deterministically, largest shadow weight
  first — the event has the same small probability that step 4's failure has
  in Theorem 3's analysis.
* the ``|REQ_e| < 4mc^2`` guard of Section 3 (``overload_guard=True``): edges
  that have seen at least ``4mc^2`` requests have all of their requests
  rejected, which the paper shows is 2-competitive on its own.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from array import array

from repro.core.fractional import CostClass, FractionalAdmissionControl, FractionalDecision
from repro.core.protocols import _CODE_KINDS, OnlineAdmissionAlgorithm
from repro.engine.backends import BackendSpec
from repro.engine.registry import ADMISSION_ALGORITHMS
from repro.engine.sampling import bernoulli_batch
from repro.instances.admission import AdmissionInstance
from repro.instances.request import Decision, EdgeId, Request
from repro.instances.serialize import decode_edge_id, encode_edge_id
from repro.utils.mathx import log2_guarded
from repro.utils.rng import RandomState, as_generator

__all__ = ["RandomizedAdmissionControl"]


class RandomizedAdmissionControl(OnlineAdmissionAlgorithm):
    """Randomized online admission control (Section 3 of the paper).

    Parameters
    ----------
    capacities:
        Edge-capacity mapping.
    weighted:
        ``True`` for the Theorem-3 configuration (threshold and probabilities
        scaled by ``log(mc)``), ``False`` for the Theorem-4 unweighted
        configuration (scaled by ``log m``; costs must all be 1).
    alpha:
        Optional guess of OPT forwarded to the fractional shadow (enables the
        ``R_big`` / ``R_small`` preprocessing).  Leave ``None`` for the plain
        mechanism or when using :class:`~repro.core.doubling.DoublingAdmissionControl`.
    rounding_constant:
        The constant ``K`` above; defaults to 12 (weighted) / 4 (unweighted).
    random_state:
        Seed or generator driving the rounding coin flips.
    force_accept_tags:
        Tags of requests that must always be accepted (see module docstring).
    overload_guard:
        Enable the ``|REQ_e| >= 4mc^2`` bulk-rejection guard from Section 3.
    g:
        Normalised cost-ratio bound forwarded to the shadow.
    backend:
        Weight-mechanism backend forwarded to the fractional shadow
        (``"python"``, ``"numpy"``, an ``EngineConfig``, or ``None``).
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        *,
        weighted: bool = True,
        alpha: Optional[float] = None,
        rounding_constant: Optional[float] = None,
        random_state: RandomState = None,
        force_accept_tags: Iterable[str] = (),
        overload_guard: bool = False,
        g: Optional[float] = None,
        backend: BackendSpec = None,
        name: Optional[str] = None,
    ):
        super().__init__(capacities, name=name)
        self.weighted = bool(weighted)
        self.rng = as_generator(random_state)
        self.force_accept_tags = frozenset(force_accept_tags)
        self.overload_guard = bool(overload_guard)

        m = len(self._capacities)
        c = max(self._capacities.values())
        self.m, self.c = m, c
        if self.weighted:
            self.log_factor = log2_guarded(m * c)
            self.rounding_constant = 12.0 if rounding_constant is None else float(rounding_constant)
        else:
            self.log_factor = log2_guarded(m)
            self.rounding_constant = 4.0 if rounding_constant is None else float(rounding_constant)
        if self.rounding_constant <= 0:
            raise ValueError("rounding_constant must be positive")
        #: step-2 threshold: requests at or above this weight are rejected for sure.
        self.weight_threshold = 1.0 / (self.rounding_constant * self.log_factor)
        #: step-3 multiplier: a weight increase of ``delta`` is rejected w.p. ``delta * prob_factor``.
        self.prob_factor = self.rounding_constant * self.log_factor
        #: step 3 of Section 3 assumes |REQ_e| < 4 m c^2.
        self.overload_limit = 4 * m * c * c

        self._shadow = FractionalAdmissionControl(
            capacities,
            alpha=alpha,
            g=g,
            force_accept_tags=self.force_accept_tags,
            unweighted=not self.weighted,
            backend=backend,
            # Step 3 rounds the shadow's per-arrival deltas, so this is the
            # one caller that records them; the shadow keeps no outcome past
            # the decision it returns.
            record=True,
        )
        self.backend = self._shadow.backend
        # Edges already bulk-rejected by the overload guard.
        self._guarded_edges: Set[EdgeId] = set()
        # Requests accepted permanently (R_big / forced): never preempted by rounding.
        self._permanent: Set[int] = set()
        self._requests_by_id: Dict[int, Request] = {}
        # Diagnostics.
        self.num_threshold_rejections = 0
        self.num_coin_rejections = 0
        self.num_capacity_rejections = 0
        self.num_feasibility_preemptions = 0

    # ------------------------------------------------------------------------------
    @property
    def shadow(self) -> FractionalAdmissionControl:
        """The fractional shadow algorithm (read-only use recommended)."""
        return self._shadow

    def check_arrival(self, request: Request) -> None:
        """The base checks plus the shadow's (a non-unit cost when unweighted)."""
        super().check_arrival(request)
        # The shadow refuses nothing more unless it is unweighted, so a
        # weighted arrival skips its second pass over the same edges.
        if not self.weighted:
            self._shadow.check_arrival(request)

    def check_compiled(self, compiled) -> None:
        """The shadow's :meth:`~FractionalAdmissionControl.check_compiled` (read-only)."""
        self._shadow.check_compiled(compiled)

    def update_alpha(self, alpha: float) -> None:
        """Forward a new OPT guess to the fractional shadow (doubling support)."""
        self._shadow.update_alpha(alpha)

    def fractional_cost(self) -> float:
        """Objective of the fractional shadow (the comparator in Theorem 3's proof)."""
        return self._shadow.fractional_cost()

    def extra_metrics(self) -> Dict[str, float]:
        """Diagnostics merged into the :class:`~repro.core.protocols.AdmissionResult`."""
        return {
            "fractional_cost": self._shadow.fractional_cost(),
            "num_augmentations": self._shadow.num_augmentations,
            "threshold_rejections": self.num_threshold_rejections,
            "coin_rejections": self.num_coin_rejections,
            "capacity_rejections": self.num_capacity_rejections,
            "feasibility_preemptions": self.num_feasibility_preemptions,
            "weight_threshold": self.weight_threshold,
            "prob_factor": self.prob_factor,
        }

    # ------------------------------------------------------------------------------
    def process(self, request: Request) -> Decision:
        """Process one arriving request (steps 1–4 of Section 3)."""
        return self._decide(request, None, 0)

    def process_indexed(self, compiled, i: int) -> Decision:
        """Process arrival ``i`` of a compiled instance (the array-native path).

        The fractional shadow — where the run time is spent — consumes the
        compiled instance's dense edge indices directly; the acceptance
        bookkeeping still sees the original :class:`Request` object, so
        decision logs and results are identical to :meth:`process`.
        """
        # A foreign interning raises here, before the arrival is recorded.
        self.check_compiled(compiled)
        return self._decide(compiled.request(i), compiled, i)

    def _decide(self, request: Request, compiled, i: int) -> Decision:
        """Steps 1–4 for one arrival; the shadow runs on arrival ``i`` of ``compiled`` if given."""
        self._register_arrival(request)
        self._requests_by_id[request.request_id] = request

        # Optional Section-3 guard: edges with >= 4mc^2 requests get everything rejected.
        if self.overload_guard:
            rejected = self._apply_overload_guard(request)
            if rejected is not None:
                return rejected

        # Step 1: run the fractional shadow (weight augmentations).
        if compiled is None:
            frac = self._shadow.process(request)
        else:
            frac = self._shadow.process_indexed(compiled, i)
        return self._round_shadow_decision(request, frac)

    def _round_shadow_decision(self, request: Request, frac: FractionalDecision) -> Decision:
        """Steps 2–4: round the shadow's decision into accept/reject/preempt."""
        if frac.cost_class == CostClass.SMALL:
            # R_small requests are rejected outright (cheap, paid in full).
            return self._reject(request)
        if frac.cost_class in (CostClass.BIG, CostClass.FORCED):
            return self._process_permanent(request, frac)
        return self._process_normal(request, frac)

    # -- normal requests ----------------------------------------------------------------
    def _process_normal(self, request: Request, frac: FractionalDecision) -> Decision:
        """Steps 2–4 for a request handled by the weight mechanism.

        Every request the rounding looks at here is NORMAL: the arrival
        itself, and each one the shadow's deltas name, since the weight
        backend registers NORMAL requests only (ARCHITECTURE invariant 11).
        """
        arriving_id = request.request_id
        arriving_rejected = False

        touched = set(frac.outcome.deltas) | {arriving_id}
        # Step 2: reject every request whose weight reached the threshold.
        for rid in sorted(touched):
            if self._shadow.weight_state.weight(rid) >= self.weight_threshold:
                if rid == arriving_id:
                    arriving_rejected = True
                elif self._evict(rid, arriving_id):
                    self.num_threshold_rejections += 1

        # Step 3: independent coin per weight increase, batched into one
        # generator call (stream-identical to per-request draws).
        for rid, hit in self._step3_coins(frac.outcome.deltas):
            if hit:
                if rid == arriving_id:
                    arriving_rejected = True
                elif self._evict(rid, arriving_id):
                    self.num_coin_rejections += 1

        if arriving_rejected:
            return self._reject(request)

        # Step 4: accept only if the request fits.
        if self.can_accept(request):
            return self._accept(request)
        self.num_capacity_rejections += 1
        return self._reject(request)

    # -- permanently accepted requests ------------------------------------------------------
    def _process_permanent(self, request: Request, frac: FractionalDecision) -> Decision:
        """Handle ``R_big`` / forced requests: accept, then restore feasibility."""
        arriving_id = request.request_id
        self._permanent.add(arriving_id)

        # The shadow reserved capacity on the request's edges, possibly
        # triggering augmentations; round those weight increases as in step 3
        # and apply the step-2 threshold to the touched requests.
        if frac.outcome is not None:
            for rid in sorted(set(frac.outcome.deltas)):
                heavy = self._shadow.weight_state.weight(rid) >= self.weight_threshold
                if heavy and self._evict(rid, arriving_id):
                    self.num_threshold_rejections += 1
            for rid, hit in self._step3_coins(frac.outcome.deltas):
                if hit and self._evict(rid, arriving_id):
                    self.num_coin_rejections += 1

        decision = self._accept(request)
        self._restore_feasibility(request.ordered_edges, arriving_id)
        return decision

    def _restore_feasibility(self, edges: Iterable[EdgeId], arriving_id: int) -> None:
        """Preempt alive accepted requests until every given edge fits its capacity.

        Candidates are ordered by (non-permanent first, largest shadow weight,
        smallest cost): the requests the fractional solution has rejected the
        most are evicted first, mirroring the rounding's intent.
        """
        for edge in edges:
            while self._load[edge] > self._capacities[edge]:
                candidates = [
                    rid
                    for rid, req in self._accepted.items()
                    if edge in req.edges and rid != arriving_id and rid not in self._permanent
                ]
                if not candidates:
                    candidates = [
                        rid
                        for rid, req in self._accepted.items()
                        if edge in req.edges and rid != arriving_id
                    ]
                if not candidates:
                    # Only the forced request itself occupies the edge beyond
                    # capacity: the instance (or the alpha guess) is inconsistent.
                    break

                def eviction_key(rid: int) -> Tuple[float, float, int]:
                    weight = 0.0
                    if self._shadow.cost_class(rid) == CostClass.NORMAL:
                        weight = self._shadow.weight_state.weight(rid)
                    return (-weight, self._requests_by_id[rid].cost, rid)

                victim = min(candidates, key=eviction_key)
                self._preempt(victim, at_request=arriving_id)
                self.num_feasibility_preemptions += 1

    # -- helpers -----------------------------------------------------------------------------
    def _step3_coins(self, deltas: Mapping[int, float]):
        """The step-3 coin flips for one arrival's weight deltas, batched.

        Yields ``(request_id, hit)`` for every request whose rejection
        probability is positive, in sorted-id order; the deltas name NORMAL
        requests only, the weight backend's.  All coins come from one
        ``rng.random(k)`` call, which consumes the PCG64 stream exactly like
        ``k`` scalar draws — the trajectory is bit-identical to the
        per-request loop for the same seed (requests with zero probability
        are skipped before drawing, as the scalar loop did).
        """
        rids = []
        probs = []
        for rid, delta in sorted(deltas.items()):
            probability = min(1.0, self.prob_factor * delta)
            if probability <= 0.0:
                continue
            rids.append(rid)
            probs.append(probability)
        if not rids:
            return []
        return zip(rids, bernoulli_batch(self.rng, probs).tolist())

    def _evict(self, request_id: int, at_request: int) -> bool:
        """Preempt ``request_id`` if it is currently accepted; True if something happened."""
        if request_id in self._permanent:
            return False
        if request_id in self._accepted:
            self._preempt(request_id, at_request=at_request)
            return True
        return False

    def _apply_overload_guard(self, request: Request) -> Optional[Decision]:
        """Bulk-reject requests on edges that have seen ``>= 4mc^2`` requests.

        Returns the arriving request's rejection if the guard rejected it (in
        which case it is *not* forwarded to the fractional shadow, matching the
        paper's "the online algorithm can reject all the requests in REQ_e"),
        else ``None``.
        """
        triggered = False
        for edge in request.ordered_edges:
            if edge in self._guarded_edges:
                triggered = True
                continue
            seen = self._shadow.weight_state.request_count(edge) + 1  # +1 for the arrival
            if seen >= self.overload_limit:
                self._guarded_edges.add(edge)
                triggered = True
                for rid in list(self._accepted):
                    if edge in self._accepted[rid].edges and rid not in self._permanent:
                        self._preempt(rid, at_request=request.request_id)
        return self._reject(request) if triggered else None

    # -- checkpoint state (used by the streaming layer) ----------------------------------------
    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the algorithm's durable state, as columns.

        Covers the fractional shadow, the exact RNG state (so resumed coin
        flips are bit-identical), the accept/reject/preempt id lists, the
        decision log and the Section-3 guard state.

        The request table has one row per arrival, in arrival order, and
        stores each field once.  Ids and costs come from the shadow's rows:
        every arrival reaches the shadow unless the overload guard rejected
        it first, so only such rows are listed, in ``requests.unshadowed``,
        as ``[row, id, cost]``.  The paths of the requests the shadow's
        weight backend registered come from its columns; the paths of the
        other rows are ``requests.indptr``/``indices`` (CSR, edges numbered
        in the capacity mapping's order, as the backend numbers them).  Tags
        are sparse ``[row, tag]`` pairs.  ``decisions`` is the decision
        log's own columns: ``ids``, one kind letter each
        (:data:`repro.core.protocols._KIND_CODES`), and ``[row, at_request]``
        pairs where a decision names its trigger.  ``Request.path`` (purely
        informational) is not persisted.
        """
        shadow = self._shadow.export_state()
        shadow_ids = shadow["ids"]
        requests = list(self._requests_by_id.values())
        unshadowed = []
        if shadow_ids != list(self._requests_by_id):
            # The shadow's ids are the request ids minus the guard-rejected
            # rows, in the same order: walk both to find those rows.
            next_shadowed = 0
            for row, req in enumerate(requests):
                if next_shadowed < len(shadow_ids) and shadow_ids[next_shadowed] == req.request_id:
                    next_shadowed += 1
                else:
                    unshadowed.append([row, int(req.request_id), float(req.cost)])
        registered = set(shadow["weights"]["ids"])
        paths = [req.ordered_edges for req in requests if req.request_id not in registered]
        edge_index = {e: k for k, e in enumerate(self._capacities)}
        return {
            "kind": "randomized",
            "shadow": shadow,
            "rng": self.rng.bit_generator.state,
            "requests": {
                "indptr": [0, *accumulate(map(len, paths))],
                "indices": [edge_index[e] for e in chain.from_iterable(paths)],
                "tags": [[row, req.tag] for row, req in enumerate(requests) if req.tag is not None],
                "unshadowed": unshadowed,
            },
            "accepted": [int(r) for r in self._accepted],
            "rejected": [int(r) for r in self._rejected],
            "preempted": [int(r) for r in self._preempted],
            "decisions": {
                "ids": self._decision_ids.tolist(),
                "kinds": self._decision_kinds.tobytes().decode("ascii"),
                "at": [[row, int(at)] for row, at in self._decision_at.items()],
            },
            "permanent": sorted(int(r) for r in self._permanent),
            "guarded_edges": [encode_edge_id(e) for e in self._guarded_edges],
            "counters": {
                "threshold_rejections": int(self.num_threshold_rejections),
                "coin_rejections": int(self.num_coin_rejections),
                "capacity_rejections": int(self.num_capacity_rejections),
                "feasibility_preemptions": int(self.num_feasibility_preemptions),
            },
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this (fresh) algorithm."""
        if state.get("kind") != "randomized":
            raise ValueError(f"not a randomized-algorithm state: kind={state.get('kind')!r}")
        if self._seen:
            raise ValueError("restore_state requires a freshly constructed algorithm")
        shadow = state["shadow"]
        self._shadow.restore_state(shadow)
        self.rng.bit_generator.state = state["rng"]

        requests = state["requests"]
        unshadowed = {row: (rid, cost) for row, rid, cost in requests["unshadowed"]}
        shadowed = zip(shadow["ids"], shadow["cost"])
        num_rows = len(shadow["ids"]) + len(unshadowed)
        rows = [unshadowed[row] if row in unshadowed else next(shadowed) for row in range(num_rows)]
        tags = dict(requests["tags"])
        edge_order = list(self._capacities)
        own_edges = [edge_order[k] for k in requests["indices"]]
        own_indptr = requests["indptr"]
        own = 0
        registered = set(shadow["weights"]["ids"])
        weight_edges_of = self._shadow.weight_state.edges_of
        by_id: Dict[int, Request] = {}
        for row, (rid, cost) in enumerate(rows):
            if rid in registered:
                edges = weight_edges_of(rid)
            else:
                edges = own_edges[own_indptr[own] : own_indptr[own + 1]]
                own += 1
            by_id[rid] = Request(rid, frozenset(edges), cost, tag=tags.get(row))
        if own != len(own_indptr) - 1:
            raise ValueError(
                f"checkpoint stores {len(own_indptr) - 1} request paths outside the "
                f"weight backend, but {own} rows need one"
            )
        self._requests_by_id = by_id
        self._seen = set(by_id)
        self._accepted = {rid: by_id[rid] for rid in state["accepted"]}
        self._rejected = {rid: by_id[rid] for rid in state["rejected"]}
        self._preempted = {rid: by_id[rid] for rid in state["preempted"]}
        self._load = {e: 0 for e in self._capacities}
        for req in self._accepted.values():
            for e in req.ordered_edges:
                self._load[e] += 1

        decisions = state["decisions"]
        kinds = decisions["kinds"]
        decision_ids = array("q", decisions["ids"])
        if len(decision_ids) != len(kinds) or not _CODE_KINDS.keys() >= set(kinds):
            raise ValueError("checkpoint decision columns disagree in length or hold an unknown kind")
        self._decision_ids = decision_ids
        self._decision_kinds = array("B", kinds.encode("ascii"))
        self._decision_at = dict(decisions["at"])
        self._permanent = {int(r) for r in state["permanent"]}
        self._guarded_edges = {decode_edge_id(e) for e in state["guarded_edges"]}
        counters = state["counters"]
        self.num_threshold_rejections = int(counters["threshold_rejections"])
        self.num_coin_rejections = int(counters["coin_rejections"])
        self.num_capacity_rejections = int(counters["capacity_rejections"])
        self.num_feasibility_preemptions = int(counters["feasibility_preemptions"])

    # -- conveniences ---------------------------------------------------------------------------
    @classmethod
    def for_instance(cls, instance: AdmissionInstance, **kwargs) -> "RandomizedAdmissionControl":
        """Construct the algorithm for a concrete instance's capacities.

        The weighted/unweighted configuration is inferred from the instance's
        costs unless given explicitly.
        """
        if "weighted" not in kwargs:
            kwargs["weighted"] = not instance.is_unit_cost()
        return cls(instance.capacities, **kwargs)


@ADMISSION_ALGORITHMS.register("randomized")
def _build_randomized(instance, *, random_state=None, backend=None, **kwargs):
    """Registry builder: the randomized algorithm of Section 3."""
    return RandomizedAdmissionControl.for_instance(
        instance, random_state=random_state, backend=backend, **kwargs
    )
