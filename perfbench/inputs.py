"""The benchmark's inputs: one seeded trace generator per workload.

The generators live here, not in ``repro.workloads`` or ``repro.scenarios``,
so a change to the library's generators cannot move the benchmark's inputs.
Each one draws from ``numpy.random.default_rng([seed, tag])`` only, returns an
:class:`~repro.instances.admission.AdmissionInstance`, and is written once per
seed with :func:`~repro.instances.serialize.dump_admission_trace` before any
timed window opens.  Edge ids are integers; every path has three distinct
edges.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.instances.admission import AdmissionInstance
from repro.instances.request import Request, RequestSequence
from repro.instances.serialize import dump_admission_trace

__all__ = ["GENERATORS", "PATH_LENGTH", "SERVICE_ARRIVALS", "write_trace"]

PATH_LENGTH = 3

#: Arrivals of one service repetition (one server process, start to drain).
SERVICE_ARRIVALS = 12_000


def _distinct_paths(rng: np.random.Generator, count: int, pool: int) -> np.ndarray:
    """``count`` rows of PATH_LENGTH distinct edge ids drawn uniformly from ``range(pool)``."""
    paths = rng.integers(0, pool, size=(count, PATH_LENGTH))
    while True:
        ordered = np.sort(paths, axis=1)
        clash = (np.diff(ordered, axis=1) == 0).any(axis=1)
        if not clash.any():
            return paths
        paths[clash] = rng.integers(0, pool, size=(int(clash.sum()), PATH_LENGTH))


def _balanced_paths(rng: np.random.Generator, demand: np.ndarray) -> np.ndarray:
    """Paths in which edge ``e`` appears exactly ``demand[e]`` times (up to a remainder < 3).

    A shuffled multiset of edge slots cut into rows, with entries swapped
    between rows until no path repeats an edge; swaps keep the demand exact,
    so how far each edge is overloaded does not depend on the seed.
    """
    slots = np.repeat(np.arange(demand.shape[0]), demand)
    rng.shuffle(slots)
    paths = slots[: slots.shape[0] // PATH_LENGTH * PATH_LENGTH].reshape(-1, PATH_LENGTH)
    while True:
        ordered = np.sort(paths, axis=1)
        clash = np.nonzero((np.diff(ordered, axis=1) == 0).any(axis=1))[0]
        if clash.shape[0] == 0:
            return paths
        for row in clash.tolist():
            other = int(rng.integers(paths.shape[0]))
            a, b = rng.integers(PATH_LENGTH, size=2).tolist()
            paths[row, a], paths[other, b] = paths[other, b], paths[row, a]


def _instance(name: str, paths: np.ndarray, costs: np.ndarray, capacities: Dict[int, int]):
    requests = RequestSequence(
        Request(i, frozenset(row), cost)
        for i, (row, cost) in enumerate(zip(paths.tolist(), costs.tolist()))
    )
    return AdmissionInstance(capacities, requests, name=name)


def replay_hotspot(seed: int, scale: float = 1.0) -> AdmissionInstance:
    """A recorded trace with a flash crowd on a few hot edges.

    Why: it puts the record-free block/restore kernel of ``engine.backends``
    under load and nothing else.  Background paths never exceed capacity
    (each background edge's capacity sits just above its total demand), while
    a 20% flash-crowd share targets 16 hot edges of capacity 48 (fewer at a
    smaller ``scale``, so they still overflow).  The hot
    edges saturate early, so almost every arrival after that goes through
    ``process_arrival_block_indexed``; OPT must reject about the flash share.
    """
    rng = np.random.default_rng([seed, 1])
    n = max(200, round(60_000 * scale))
    hot, hot_capacity = max(1, round(16 * scale)), 48
    background = max(32, round(1_200 * scale))
    paths = _distinct_paths(rng, n, background)
    flash = rng.random(n) < 0.2
    paths[flash, 0] = background + rng.integers(0, hot, size=int(flash.sum()))
    demand = np.bincount(paths.ravel(), minlength=background + hot)
    capacities = {e: math.ceil(int(demand[e]) / 0.97) or 1 for e in range(background)}
    capacities.update({background + h: hot_capacity for h in range(hot)})
    costs = rng.uniform(1.0, 8.0, size=n)
    return _instance("replay_hotspot", paths, costs, capacities)


def session_doubling(seed: int, scale: float = 1.0) -> AdmissionInstance:
    """Balanced demand below capacity, with one edge in sixteen well over it.

    Why: it is the only workload on ``doubling``'s per-arrival, record-on path
    and on the checkpoint codec.  Every edge receives an exact, seed-independent
    number of arrivals (:func:`_balanced_paths`): 0.8
    of capacity on most edges and 1.5 on one edge in sixteen, so OPT rejects
    about a tenth of the arrivals whatever the seed; a smaller overload leaves
    so few forced rejections that the randomized rounding's own rejections,
    and with them the cost, swing with the seed.  Costs lie in [1, 2): no
    arrival falls outside the doubling guess's normal class, so the work per
    arrival does not depend on which phases a seed happens to trigger.
    """
    rng = np.random.default_rng([seed, 2])
    edges, capacity = max(32, round(256 * scale)), 48
    demand = np.full(edges, round(0.8 * capacity))
    demand[rng.choice(edges, size=max(2, edges // 16), replace=False)] = round(1.5 * capacity)
    paths = _balanced_paths(rng, demand)
    costs = rng.uniform(1.0, 2.0, size=paths.shape[0])
    return _instance("session_doubling", paths, costs, {e: capacity for e in range(edges)})


def service_window(seed: int, scale: float = 1.0) -> AdmissionInstance:
    """Uniform random paths over 2,048 edges, capacity 1.2x the mean demand.

    Why: it is the only workload through ``repro.service`` and its small
    engine batches, where ``compile_sequence`` interns every edge once per
    micro-batch.  Random fluctuation overloads some edges, so about a tenth
    of the arrivals are rejected.
    """
    rng = np.random.default_rng([seed, 3])
    n = max(100, round(SERVICE_ARRIVALS * scale))
    edges = max(32, round(2_048 * scale))
    capacity = max(1, round(1.2 * PATH_LENGTH * n / edges))
    paths = _distinct_paths(rng, n, edges)
    costs = rng.uniform(1.0, 8.0, size=n)
    return _instance("service_window", paths, costs, {e: capacity for e in range(edges)})


GENERATORS = {
    "replay_hotspot": replay_hotspot,
    "session_doubling": session_doubling,
    "service_window": service_window,
}


def write_trace(workload: str, seed: int, scale: float, path: str) -> AdmissionInstance:
    """Generate the workload's instance and write it as a JSONL trace at ``path``."""
    instance = GENERATORS[workload](seed, scale)
    dump_admission_trace(instance, path)
    return instance
