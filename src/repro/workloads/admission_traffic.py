"""Serving-style traffic generators: bursty, heavy-tailed, diurnal, flash-crowd.

The random and adversarial workloads stress the *structure* of an instance
(hot edges, cheap-then-expensive traps); the generators below stress its
*arrival process*, the way real serving traffic does:

* :func:`bursty_workload` — a two-state Markov-modulated process (MMPP):
  calm traffic spreads over the whole edge set, burst episodes funnel
  requests through a small hot set.  Bursts are tagged, so each episode
  stays identifiable in the request stream;
* :func:`zipf_cost_workload` — Zipf-popular edges times Zipf-heavy rejection
  penalties, the canonical serving mix (a few very popular resources, a few
  very expensive requests);
* :func:`diurnal_workload` — a sinusoidal day/night load curve: peak-hour
  arrivals concentrate on the hot set, off-peak traffic spreads out;
* :func:`flash_crowd_workload` — steady background traffic with one sudden
  crowd hammering a small target set for a fraction of the trace;
* :func:`adversarial_mix_workload` — independent adversarial blocks (the
  constructions of :mod:`repro.workloads.admission_adversarial`) on disjoint
  edge namespaces, randomly interleaved into one stream;
* :func:`topology_stress_workload` — shortest-path circuits over any of the
  standard topologies (:mod:`repro.network.topologies`) at a chosen overload
  level.

Every generator emits a plain :class:`~repro.instances.admission.
AdmissionInstance`, so the compiled fast path
(:func:`repro.instances.compiled.compile_sequence`) applies unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.instances.admission import AdmissionInstance
from repro.instances.request import Request, RequestSequence
from repro.utils.rng import RandomState, as_generator
from repro.workloads.admission_adversarial import (
    cheap_then_expensive_adversary,
    long_vs_short_adversary,
    overloaded_edge_adversary,
)
from repro.workloads.costs import sample_costs, zipf_costs

__all__ = [
    "bursty_workload",
    "zipf_cost_workload",
    "diurnal_workload",
    "flash_crowd_workload",
    "adversarial_mix_workload",
    "topology_stress_workload",
]


def _uniform_edges(rng, num_edges: int, max_path: int) -> List[str]:
    """A short random path: 1..max_path distinct uniform edges."""
    k = int(rng.integers(1, max_path + 1))
    picks = rng.choice(num_edges, size=min(k, num_edges), replace=False)
    return [f"e{int(j)}" for j in picks]


def bursty_workload(
    num_edges: int = 64,
    num_requests: int = 400,
    capacity: int = 8,
    *,
    num_hot_edges: int = 4,
    calm_to_burst: float = 0.05,
    burst_to_calm: float = 0.15,
    max_path: int = 2,
    cost_sampler=None,
    random_state: RandomState = None,
    name: str = "bursty-mmpp",
) -> AdmissionInstance:
    """Markov-modulated (MMPP-style) bursty arrivals.

    A hidden two-state chain switches between *calm* (requests spread over
    all edges) and *burst* (every request crosses one of ``num_hot_edges``
    hot edges, so their load spikes far beyond capacity).  The stationary
    burst fraction is ``calm_to_burst / (calm_to_burst + burst_to_calm)``.
    Requests inside burst episode ``k`` carry the tag ``"burst<k>"``, so an
    episode stays identifiable in the request stream.
    """
    if num_hot_edges < 1 or num_hot_edges > num_edges:
        raise ValueError("need 1 <= num_hot_edges <= num_edges")
    if not (0.0 < calm_to_burst <= 1.0 and 0.0 < burst_to_calm <= 1.0):
        raise ValueError("transition probabilities must be in (0, 1]")
    rng = as_generator(random_state)
    capacities = {f"e{j}": capacity for j in range(num_edges)}
    costs = sample_costs(cost_sampler, num_requests, rng)
    requests: List[Request] = []
    bursting = False
    burst_id = 0
    for i in range(num_requests):
        if bursting:
            if rng.random() < burst_to_calm:
                bursting = False
        elif rng.random() < calm_to_burst:
            bursting = True
            burst_id += 1
        if bursting:
            hot = f"e{int(rng.integers(0, num_hot_edges))}"
            edges = {hot, f"e{int(rng.integers(0, num_edges))}"}
            tag: Optional[str] = f"burst{burst_id}"
        else:
            edges = set(_uniform_edges(rng, num_edges, max_path))
            tag = None
        requests.append(Request(i, frozenset(edges), float(costs[i]), tag=tag))
    return AdmissionInstance(capacities, RequestSequence(requests), name=name)


def zipf_cost_workload(
    num_edges: int = 64,
    num_requests: int = 400,
    capacity: int = 6,
    *,
    cost_exponent: float = 1.8,
    cost_cap: float = 1e4,
    edge_concentration: float = 1.1,
    max_path: int = 3,
    random_state: RandomState = None,
    name: str = "zipf-costs",
) -> AdmissionInstance:
    """Zipf-popular edges crossed by requests with Zipf-heavy rejection penalties.

    Edge ``j`` is chosen with probability proportional to
    ``(j + 1) ** -edge_concentration`` — the first few edges absorb most of
    the load — while costs come from :func:`repro.workloads.costs.zipf_costs`,
    so occasionally a very expensive request competes for a very popular edge.
    This is the regime where the ``R_big`` / ``R_small`` preprocessing earns
    its keep.
    """
    if num_edges < 2:
        raise ValueError(
            "num_edges must be >= 2: the Zipf edge-popularity support needs at "
            "least two edges, otherwise every request hits the same edge and "
            "the popularity weights are degenerate"
        )
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if edge_concentration <= 0:
        raise ValueError(
            f"edge_concentration must be > 0 (rank-decreasing popularity), "
            f"got {edge_concentration}"
        )
    rng = as_generator(random_state)
    capacities = {f"e{j}": capacity for j in range(num_edges)}
    weights = np.arange(1, num_edges + 1, dtype=float) ** (-float(edge_concentration))
    weights /= weights.sum()
    costs = zipf_costs(num_requests, exponent=cost_exponent, cap=cost_cap, random_state=rng)
    requests: List[Request] = []
    for i in range(num_requests):
        k = int(rng.integers(1, max_path + 1))
        picks = rng.choice(num_edges, size=min(k, num_edges), replace=False, p=weights)
        edges = frozenset(f"e{int(j)}" for j in picks)
        requests.append(Request(i, edges, float(costs[i])))
    return AdmissionInstance(capacities, RequestSequence(requests), name=name)


def diurnal_workload(
    num_edges: int = 48,
    num_requests: int = 480,
    capacity: int = 6,
    *,
    num_days: int = 2,
    peak_hot_fraction: float = 0.85,
    offpeak_hot_fraction: float = 0.1,
    num_hot_edges: int = 6,
    max_path: int = 2,
    cost_sampler=None,
    random_state: RandomState = None,
    name: str = "diurnal",
) -> AdmissionInstance:
    """A day/night load curve: peak hours concentrate traffic on the hot set.

    Request ``i`` arrives at phase ``2 * pi * num_days * i / n``; the
    probability that it crosses a hot edge interpolates sinusoidally between
    ``offpeak_hot_fraction`` (night) and ``peak_hot_fraction`` (midday), so
    the hot edges see recurring congestion waves rather than one flood.
    Requests are tagged ``"day<d>"`` with their day index.
    """
    if not 0.0 <= offpeak_hot_fraction <= peak_hot_fraction <= 1.0:
        raise ValueError("need 0 <= offpeak_hot_fraction <= peak_hot_fraction <= 1")
    if num_hot_edges < 1 or num_hot_edges > num_edges:
        raise ValueError("need 1 <= num_hot_edges <= num_edges")
    rng = as_generator(random_state)
    capacities = {f"e{j}": capacity for j in range(num_edges)}
    costs = sample_costs(cost_sampler, num_requests, rng)
    requests: List[Request] = []
    for i in range(num_requests):
        phase = 2.0 * np.pi * num_days * i / max(num_requests, 1)
        # sin^2 ramps 0 -> 1 -> 0 once per day, peaking mid-day.
        intensity = float(np.sin(phase / 2.0) ** 2)
        p_hot = offpeak_hot_fraction + (peak_hot_fraction - offpeak_hot_fraction) * intensity
        day = int(num_days * i / max(num_requests, 1))
        if rng.random() < p_hot:
            hot = f"e{int(rng.integers(0, num_hot_edges))}"
            edges = {hot, f"e{int(rng.integers(0, num_edges))}"}
        else:
            edges = set(_uniform_edges(rng, num_edges, max_path))
        requests.append(Request(i, frozenset(edges), float(costs[i]), tag=f"day{day}"))
    return AdmissionInstance(capacities, RequestSequence(requests), name=name)


def flash_crowd_workload(
    num_edges: int = 64,
    num_requests: int = 500,
    capacity: int = 6,
    *,
    spike_start: float = 0.45,
    spike_duration: float = 0.12,
    spike_intensity: float = 0.9,
    num_target_edges: int = 3,
    max_path: int = 2,
    cost_sampler=None,
    random_state: RandomState = None,
    name: str = "flash-crowd",
) -> AdmissionInstance:
    """Steady background traffic with one sudden crowd on a small target set.

    Arrivals in the window ``[spike_start, spike_start + spike_duration)``
    (as fractions of the trace) cross one of ``num_target_edges`` target
    edges with probability ``spike_intensity`` — far beyond their capacity —
    and carry the tag ``"spike"``.  Everything before and after is uniform
    background load, so an online algorithm must absorb the crowd without
    having been warned by the prefix.
    """
    if not 0.0 <= spike_start or not 0.0 < spike_duration or spike_start + spike_duration > 1.0:
        raise ValueError("spike window must lie within the trace")
    if not 0.0 <= spike_intensity <= 1.0:
        raise ValueError("spike_intensity must be in [0, 1]")
    if num_target_edges < 1 or num_target_edges > num_edges:
        raise ValueError("need 1 <= num_target_edges <= num_edges")
    rng = as_generator(random_state)
    capacities = {f"e{j}": capacity for j in range(num_edges)}
    costs = sample_costs(cost_sampler, num_requests, rng)
    spike_lo = spike_start * num_requests
    spike_hi = (spike_start + spike_duration) * num_requests
    requests: List[Request] = []
    for i in range(num_requests):
        in_spike = spike_lo <= i < spike_hi and rng.random() < spike_intensity
        if in_spike:
            target = f"e{int(rng.integers(0, num_target_edges))}"
            edges = {target, f"e{int(rng.integers(0, num_edges))}"}
            tag: Optional[str] = "spike"
        else:
            edges = set(_uniform_edges(rng, num_edges, max_path))
            tag = None
        requests.append(Request(i, frozenset(edges), float(costs[i]), tag=tag))
    return AdmissionInstance(capacities, RequestSequence(requests), name=name)


def adversarial_mix_workload(
    num_edges: int = 8,
    capacity: int = 2,
    *,
    blocks: Sequence[str] = ("overload", "cheap-expensive", "long-short"),
    random_state: RandomState = None,
    name: str = "adversarial-mix",
) -> AdmissionInstance:
    """Independent adversarial constructions interleaved into one stream.

    Each entry of ``blocks`` names one construction from
    :mod:`repro.workloads.admission_adversarial` (``"overload"``,
    ``"cheap-expensive"``, ``"long-short"``); the block is built on its own
    edge namespace (``b<k>:<edge>``) and the blocks are merged by a random
    interleaving that preserves each block's internal arrival order — the
    adversaries keep their bite, but the algorithm faces them simultaneously
    instead of one at a time.  Requests carry the tag ``"block<k>"``.
    """
    builders = {
        "overload": lambda rng: overloaded_edge_adversary(
            num_edges, capacity, num_hot_edges=max(1, num_edges // 4), random_state=rng
        ),
        "cheap-expensive": lambda rng: cheap_then_expensive_adversary(
            num_edges, capacity, expensive_cost=50.0
        ),
        "long-short": lambda rng: long_vs_short_adversary(num_edges, capacity),
    }
    unknown = [b for b in blocks if b not in builders]
    if unknown:
        raise ValueError(f"unknown adversarial blocks {unknown!r}; known: {sorted(builders)}")
    if not blocks:
        raise ValueError("need at least one block")
    rng = as_generator(random_state)

    capacities = {}
    streams: List[List[Request]] = []
    for k, block in enumerate(blocks):
        sub = builders[block](rng)
        prefix = f"b{k}:"
        for edge, cap in sub.capacities.items():
            capacities[prefix + str(edge)] = cap
        streams.append(
            [
                Request(0, frozenset(prefix + str(e) for e in req.ordered_edges), req.cost, tag=f"block{k}")
                for req in sub.requests
            ]
        )

    # Random merge preserving per-stream order: repeatedly pick a stream with
    # probability proportional to how many requests it still has to emit.
    remaining = np.array([len(s) for s in streams], dtype=float)
    cursors = [0] * len(streams)
    merged: List[Request] = []
    rid = 0
    while remaining.sum() > 0:
        probs = remaining / remaining.sum()
        k = int(rng.choice(len(streams), p=probs))
        req = streams[k][cursors[k]]
        cursors[k] += 1
        remaining[k] -= 1
        merged.append(Request(rid, req.edges, req.cost, tag=req.tag))
        rid += 1
    return AdmissionInstance(capacities, RequestSequence(merged), name=name)


def topology_stress_workload(
    topology: str = "grid",
    size: int = 4,
    capacity: int = 3,
    num_requests: int = 240,
    *,
    cost_sampler=None,
    random_state: RandomState = None,
    name: Optional[str] = None,
) -> AdmissionInstance:
    """Shortest-path circuits over a standard topology at overload.

    ``topology`` selects the constructor from :mod:`repro.network.topologies`
    (``"line"``, ``"ring"``, ``"star"``, ``"tree"``, ``"grid"``,
    ``"complete"``); ``size`` is its characteristic dimension (vertices per
    side for the grid, depth for the tree, ...).  Random source/target pairs
    are routed on shortest paths, so central edges congest first — the
    virtual-circuit workload of the paper's introduction on every shape the
    library knows.
    """
    from repro.network.routing import random_source_target
    from repro.network.topologies import (
        binary_tree_graph,
        complete_graph,
        grid_graph,
        line_graph,
        ring_graph,
        star_graph,
    )

    constructors = {
        "line": lambda: line_graph(max(size, 2), capacity=capacity),
        "ring": lambda: ring_graph(max(size, 3), capacity=capacity),
        "star": lambda: star_graph(max(size, 1), capacity=capacity),
        "tree": lambda: binary_tree_graph(max(size, 1), capacity=capacity),
        "grid": lambda: grid_graph(max(size, 1), max(size, 1), capacity=capacity),
        "complete": lambda: complete_graph(max(size, 2), capacity=capacity),
    }
    if topology not in constructors:
        raise ValueError(f"unknown topology {topology!r}; known: {sorted(constructors)}")
    rng = as_generator(random_state)
    graph = constructors[topology]()
    costs = sample_costs(cost_sampler, num_requests, rng)
    requests: List[Request] = []
    for i in range(num_requests):
        source, target = random_source_target(graph, rng)
        path = graph.shortest_path(source, target)
        requests.append(graph.request_from_path(i, path, cost=float(costs[i])))
    return graph.build_instance(
        RequestSequence(requests), name=name or f"topology-stress-{topology}"
    )
