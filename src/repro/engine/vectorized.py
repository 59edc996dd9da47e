"""Whole-trace vectorized executor for the compiled fractional fast path.

Per-arrival processing of a :class:`~repro.instances.compiled.
CompiledInstance` is already array-native inside each restore, but every
arrival still crosses several Python frames (``process_indexed`` →
``process_arrival_indexed`` → ``_restore_edge_indexed``).  On traces where
most arrivals never trigger an augmentation that dispatch dominates the run
time.  This module removes it with a two-tier schedule:

**Safe-horizon bulk registration.**  An arrival that leaves every edge of its
path at or under capacity cannot trigger any weight activity: it registers at
weight 0 and every restore exits at the O(1) excess check, so the *only*
observable effect is the registration itself (and a fraction of exactly 0).
Whether a stretch of arrivals is safe is a pure integer question — current
alive counts, capacities, and the number of upcoming path entries per edge —
so the executor computes, from a CSR transpose of the upcoming NORMAL
arrivals, the first arrival index at which any edge would exceed its
capacity (the *safe horizon*) and registers everything before it through
:meth:`WeightBackend.register_batch_indexed` in one call.  No float is ever
consulted, so the shortcut is exact, not merely within tolerance.

**Dense block processing.**  Past the horizon (capacity-saturated stretches,
where augmentations are the norm) arrivals are handed to
:meth:`WeightBackend.process_arrival_block_indexed`, a fused record-free
kernel that performs the identical per-arrival mutations without the wrapper
frames.  With ``record=True`` the executor falls back to plain
``process_indexed`` calls — outcome diagnostics are inherently per-arrival.

**Synchronization points.**  Arrivals the schedule cannot batch — BIG/FORCED
(they *decrease capacities*, changing the horizon arithmetic), unit-cost
violations in ``unweighted`` mode, and duplicate ids (both must raise at the
exact arrival position) — are classified up front and delegated one by one to
``process_indexed``, which reproduces the scalar behaviour including
exceptions.  Capacities and alive counts are re-read after every such point,
so capacity exhaustion and capacity reductions become *chunk boundaries*
rather than per-request branches.

The executor performs the same floating-point operations in the same order as
the per-arrival loop (bulk stretches perform none, by construction), so
results agree bit-for-bit, not just within the 1e-9 equivalence tolerance.
Doubling-phase resets (:mod:`repro.core.doubling`) change ``alpha`` between
arrivals and therefore stay on the per-arrival path; see ARCHITECTURE.md.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.backends import ArrivalOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.fractional import FractionalAdmissionControl
    from repro.instances.compiled import CompiledInstance

__all__ = ["run_compiled_trace", "MIN_BULK", "DENSE_STEP"]

#: Minimum safe-stretch length worth a bulk registration call; shorter safe
#: stretches just ride along with the dense kernel.
MIN_BULK = 32

#: Arrivals handed to the dense kernel per scheduling cycle.  Bounds how stale
#: the alive counts used by the horizon scan can get (they are re-read every
#: cycle) while amortising the scan itself.
DENSE_STEP = 512

_NORMAL = 0
_SMALL = 1
_SYNC = 2


def _classify(
    algorithm: "FractionalAdmissionControl",
    compiled: "CompiledInstance",
    lo: int,
    hi: int,
) -> np.ndarray:
    """Per-arrival schedule classes for ``[lo, hi)``: NORMAL / SMALL / SYNC.

    SYNC arrivals (BIG, FORCED, unit-cost violations, duplicate ids) are
    delegated to ``process_indexed`` at their exact position, so errors and
    capacity changes happen precisely where the per-arrival loop would have
    them.
    """
    count = hi - lo
    costs = compiled.costs[lo:hi]
    cls = np.zeros(count, dtype=np.uint8)
    if algorithm.alpha is not None:
        # small_threshold < big_threshold always, so the two masks are disjoint.
        cls[costs < algorithm.small_threshold] = _SMALL
        cls[costs > algorithm.big_threshold] = _SYNC
    if algorithm.force_accept_tags:
        tags = compiled.tags
        forced_tags = algorithm.force_accept_tags
        for k in range(count):
            tag = tags[lo + k]
            if tag is not None and tag in forced_tags:
                cls[k] = _SYNC
    if algorithm.unweighted:
        # Non-unit costs raise in process_indexed (forced arrivals are exempt
        # but already SYNC, so over-marking them changes nothing).
        cls[np.abs(costs - 1.0) > 1e-9] = _SYNC
    # Duplicate ids must raise at their exact arrival position; route them
    # through the per-arrival path, which performs the authoritative check.
    seen = set()
    class_of = algorithm._class_of
    for k, rid in enumerate(compiled.request_ids[lo:hi].tolist()):
        if rid in class_of or rid in seen:
            cls[k] = _SYNC
        else:
            seen.add(rid)
    return cls


def _normalized_costs(
    algorithm: "FractionalAdmissionControl", costs: np.ndarray
) -> np.ndarray:
    """Vectorized ``_normalized_cost`` — identical float ops, elementwise."""
    if algorithm.unweighted:
        return np.ones(costs.shape[0], dtype=np.float64)
    if algorithm.alpha is None:
        return np.maximum(costs, 1e-12)
    scaled = costs * algorithm.m * algorithm.c / algorithm.alpha
    return np.minimum(np.maximum(scaled, 1.0), algorithm.g)


def run_compiled_trace(
    algorithm: "FractionalAdmissionControl",
    compiled: "CompiledInstance",
    lo: int = 0,
    hi: "int | None" = None,
) -> None:
    """Process arrivals ``[lo, hi)`` of a compiled instance, batched.

    Equivalent to ``for i in range(lo, hi): algorithm.process_indexed(...)``
    — same decisions, fractions, weights, augmentation counts and exceptions
    — but with per-arrival Python dispatch only where the schedule actually
    needs it.
    """
    from repro.core.fractional import CostClass, FractionalDecision

    n = compiled.num_requests
    if hi is None:
        hi = n
    lo = max(int(lo), 0)
    hi = min(int(hi), n)
    count = hi - lo
    if count <= 0:
        return
    backend = algorithm._weights
    record = algorithm.record

    cls = _classify(algorithm, compiled, lo, hi)
    ids_sl = compiled.request_ids[lo:hi]
    rid_list = ids_sl.tolist()
    costs_sl = compiled.costs[lo:hi]
    raw_list = costs_sl.tolist()
    norm = _normalized_costs(algorithm, costs_sl)

    # Backend-aligned CSR window: translate once, slice per run.
    translate = algorithm._translation_for(compiled)
    indptr = compiled.indptr
    win_lo = int(indptr[lo])
    flat = compiled.indices[win_lo : int(indptr[hi])]
    if translate is not None:
        flat = translate[flat]
    loc_indptr = (indptr[lo : hi + 1] - win_lo).astype(np.intp, copy=False)

    # Transpose of the NORMAL arrivals' entries, grouped by edge with arrival
    # positions ascending: tpos[tptr[e]:tptr[e+1]] are the window positions of
    # the upcoming arrivals whose paths use edge e.  SMALL arrivals never
    # register and SYNC arrivals are barriers, so only NORMAL entries matter
    # for the horizon arithmetic.
    m = backend.num_edges
    lengths = np.diff(loc_indptr)
    arr_of_entry = np.repeat(np.arange(count, dtype=np.intp), lengths)
    normal_entry = cls[arr_of_entry] == _NORMAL
    nflat = flat[normal_entry]
    narr = arr_of_entry[normal_entry]
    tptr = np.zeros(m + 1, dtype=np.int64)
    if nflat.shape[0]:
        order = np.argsort(nflat, kind="stable")
        tpos = narr[order]
        np.cumsum(np.bincount(nflat, minlength=m), out=tptr[1:])
    else:
        tpos = narr

    def horizon(i: int, alive: np.ndarray, caps: np.ndarray) -> int:
        """First arrival position >= i at which some edge would exceed capacity.

        Pure integer arithmetic: edge e has ``max(cap_e - alive_e, 0)`` safe
        future registrations; its first unsafe entry is that many positions
        past the entries already consumed by arrivals before ``i``.
        """
        if tpos.shape[0] == 0:
            return count
        ptr = int(np.searchsorted(narr, i, side="left"))
        consumed = np.bincount(nflat[:ptr], minlength=m)
        room = caps - alive
        np.maximum(room, 0, out=room)
        idx = tptr[:-1] + consumed + room
        valid = idx < tptr[1:]
        if not valid.any():
            return count
        return int(tpos[idx[valid]].min())

    class_of = algorithm._class_of
    original_cost = algorithm._original_cost
    decisions = algorithm._decisions
    NORMAL = CostClass.NORMAL
    SMALL = CostClass.SMALL

    def emit_small(pos: int) -> None:
        rid = rid_list[pos]
        cost = raw_list[pos]
        original_cost[rid] = cost
        class_of[rid] = SMALL
        algorithm._small_cost += cost
        decisions.append(FractionalDecision(rid, SMALL, None, 1.0))

    def run_bulk(s: int, e: int) -> None:
        # Every NORMAL arrival in [s, e) is provably inert: it registers at
        # weight 0 and every restore on its path exits at the O(1) excess
        # check.  Register maximal NORMAL runs in one backend call; fractions
        # are exactly 0 and outcomes (when recorded) are exactly empty.
        pos = s
        while pos < e:
            if cls[pos] == _SMALL:
                emit_small(pos)
                pos += 1
                continue
            run_end = pos + 1
            while run_end < e and cls[run_end] == _NORMAL:
                run_end += 1
            rids = rid_list[pos:run_end]
            base = loc_indptr[pos]
            backend.register_batch_indexed(
                rids,
                norm[pos:run_end],
                flat[base : loc_indptr[run_end]],
                loc_indptr[pos : run_end + 1] - base,
            )
            class_of.update(zip(rids, repeat(NORMAL)))
            original_cost.update(zip(rids, raw_list[pos:run_end]))
            if record:
                decisions.extend(
                    FractionalDecision(rid, NORMAL, ArrivalOutcome(request_id=rid), 0.0)
                    for rid in rids
                )
            else:
                decisions.extend(
                    FractionalDecision(rid, NORMAL, None, 0.0) for rid in rids
                )
            pos = run_end

    def run_dense(s: int, e: int) -> None:
        if record:
            # Outcome diagnostics are per-arrival by nature; the scalar fast
            # path is authoritative here.
            for pos in range(s, e):
                algorithm.process_indexed(compiled, lo + pos)
            return
        pos = s
        while pos < e:
            if cls[pos] == _SMALL:
                emit_small(pos)
                pos += 1
                continue
            run_end = pos + 1
            while run_end < e and cls[run_end] == _NORMAL:
                run_end += 1
            rids = rid_list[pos:run_end]
            base = loc_indptr[pos]
            fractions = backend.process_arrival_block_indexed(
                rids,
                norm[pos:run_end],
                flat[base : loc_indptr[run_end]],
                loc_indptr[pos : run_end + 1] - base,
            )
            class_of.update(zip(rids, repeat(NORMAL)))
            original_cost.update(zip(rids, raw_list[pos:run_end]))
            fr = fractions.tolist()
            decisions.extend(
                FractionalDecision(rid, NORMAL, None, fr[r])
                for r, rid in enumerate(rids)
            )
            pos = run_end

    sync_pos = np.nonzero(cls == _SYNC)[0].tolist()
    sync_pos.append(count)  # sentinel

    i = 0
    sp = 0
    while i < count:
        next_sync = sync_pos[sp]
        if next_sync == i:
            algorithm.process_indexed(compiled, lo + i)
            i += 1
            sp += 1
            continue
        alive = backend._alive_counts_array()
        caps = np.asarray(backend._cap, dtype=np.int64)
        safe_end = min(next_sync, horizon(i, alive, caps))
        if safe_end - i >= MIN_BULK:
            run_bulk(i, safe_end)
            i = safe_end
        else:
            dense_end = min(next_sync, i + DENSE_STEP)
            run_dense(i, dense_end)
            i = dense_end
