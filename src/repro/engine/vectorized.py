"""Whole-trace vectorized executor for the compiled fractional fast path.

Per-arrival processing of a :class:`~repro.instances.compiled.
CompiledInstance` is already array-native inside each restore, but every
arrival still crosses several Python frames (``process_indexed`` →
``process_arrival_indexed`` → ``_restore_edge_indexed``), registers its path
entry by entry and screens every edge it touches.  This module classifies the
arrival window once and hands every run of NORMAL arrivals between two
synchronization points to :meth:`WeightBackend.process_arrival_block_indexed`,
at most :data:`MAX_BLOCK` arrivals per call, in both record modes.

**The room split.**  In the paper's mechanism an arrival does weight work on
edge ``e`` only while ``n_e = |ALIVE_e| - c_e > 0``.  Inside a block
capacities are fixed (capacity reductions are synchronization points) and
kills only lower ``|ALIVE_e|``, so each edge's first ``max(c_e - |ALIVE_e|,
0)`` entries in the block are provably inert: they register at weight 0 and
can never start an augmentation.  The numpy kernel registers every arrival
and those *cold* entries in bulk and steps only the remaining *hot* entries,
arrival by arrival.  Which entries are cold is a pure integer question —
alive counts, capacities and entry ranks per edge — so the split is exact,
not merely within tolerance: every restore gathers the same weights, in the
same order, as the per-arrival loop.

**Synchronization points.**  Arrivals a block cannot hold — BIG/FORCED (they
*decrease capacities*), unit-cost violations in ``unweighted`` mode, and
duplicate ids (both must raise at the exact arrival position) — are
classified up front and delegated one by one to ``process_indexed``, which
reproduces the scalar behaviour including exceptions.  SMALL arrivals never
reach the weight backend; the executor books them, and every block's
decisions, in arrival order.

The executor performs the same floating-point operations in the same order as
the per-arrival loop, so results agree bit-for-bit, not just within the 1e-9
equivalence tolerance.  Doubling-phase resets (:mod:`repro.core.doubling`)
change ``alpha`` between arrivals and therefore stay on the per-arrival path;
see ARCHITECTURE.md.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.fractional import FractionalAdmissionControl
    from repro.instances.compiled import CompiledInstance

__all__ = ["run_compiled_trace", "MAX_BLOCK"]

#: Most arrivals handed to the block kernel per call.  A call's transient
#: memory (its ``tolist()`` lists and sort temporaries) grows with its
#: length: replaying perfbench's 60,000-arrival ``replay_hotspot`` trace in
#: one call peaks at 45.7 MB (tracemalloc), in calls of 8,192 arrivals at
#: 43.7 MB, with no measurable difference in time.
MAX_BLOCK = 8192

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
    rids = compiled.request_ids[lo:hi].tolist()
    class_of = algorithm._class_of
    if len(set(rids)) == count and class_of.keys().isdisjoint(rids):
        return cls
    seen = set()
    for k, rid in enumerate(rids):
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
    — but with per-arrival Python dispatch only at synchronization points.
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

    # Backend-aligned CSR window: translate once, slice per block.
    translate = algorithm._translation_for(compiled)
    indptr = compiled.indptr
    win_lo = int(indptr[lo])
    flat = compiled.indices[win_lo : int(indptr[hi])]
    if translate is not None:
        flat = translate[flat]
    loc_indptr = (indptr[lo : hi + 1] - win_lo).astype(np.intp, copy=False)

    # The NORMAL arrivals' own CSR, one row each: SMALL arrivals never reach
    # the backend and SYNC arrivals are barriers, so a block is a run of rows.
    is_normal = cls == _NORMAL
    normal = np.flatnonzero(is_normal)
    if normal.shape[0] == count:
        row_rids, row_costs, row_flat, row_ptr = rid_list, norm, flat, loc_indptr
    else:
        lengths = np.diff(loc_indptr)
        row_rids = ids_sl[normal].tolist()
        row_costs = norm[normal]
        row_flat = flat[np.repeat(is_normal, lengths)]
        row_ptr = np.zeros(normal.shape[0] + 1, dtype=np.intp)
        np.cumsum(lengths[normal], out=row_ptr[1:])
    normal_pos = normal.tolist()

    class_of = algorithm._class_of
    original_cost = algorithm._original_cost
    decisions = algorithm._decisions
    NORMAL = CostClass.NORMAL
    SMALL = CostClass.SMALL
    small_pos = np.flatnonzero(cls == _SMALL).tolist()
    small_pos.append(count)  # sentinel
    next_small = 0

    def book(s: int, e: int, fractions: "np.ndarray | None", outcomes) -> None:
        # Class bookkeeping and decisions of window positions [s, e) in
        # arrival order.  Its NORMAL arrivals are the last block's rows, in
        # order; the rest are SMALL (SYNC positions are never booked here).
        nonlocal next_small
        fr = [] if fractions is None else fractions.tolist()
        k = 0  # the block row of the next NORMAL arrival
        pos = s
        while pos < e:
            run_end = min(small_pos[next_small], e)
            if run_end > pos:
                rids = rid_list[pos:run_end]
                k_end = k + run_end - pos
                class_of.update(zip(rids, repeat(NORMAL)))
                original_cost.update(zip(rids, raw_list[pos:run_end]))
                decisions.extend(
                    map(
                        FractionalDecision,
                        rids,
                        repeat(NORMAL),
                        repeat(None) if outcomes is None else outcomes[k:k_end],
                        fr[k:k_end],
                    )
                )
                k = k_end
                pos = run_end
            if pos < e:
                rid = rid_list[pos]
                cost = raw_list[pos]
                original_cost[rid] = cost
                class_of[rid] = SMALL
                algorithm._small_cost += cost
                decisions.append(FractionalDecision(rid, SMALL, None, 1.0))
                next_small += 1
                pos += 1

    sync_pos = np.flatnonzero(cls == _SYNC).tolist()
    sync_pos.append(count)  # sentinel

    pos = 0  # next window position to book
    row = 0  # next NORMAL row
    for stop in sync_pos:
        end = bisect_left(normal_pos, stop, lo=row)  # rows before the barrier
        while True:
            row_end = min(row + MAX_BLOCK, end)
            fractions = outcomes = None
            if row_end > row:
                base = row_ptr[row]
                fractions, outcomes = backend.process_arrival_block_indexed(
                    row_rids[row:row_end],
                    row_costs[row:row_end],
                    row_flat[base : row_ptr[row_end]],
                    row_ptr[row : row_end + 1] - base,
                    record,
                )
            # Book through the SMALL arrivals before the next block's first row.
            upto = normal_pos[row_end] if row_end < end else stop
            book(pos, upto, fractions, outcomes)
            pos, row = upto, row_end
            if row_end == end:
                break
        if stop < count:
            algorithm.process_indexed(compiled, lo + stop)
            pos = stop + 1
