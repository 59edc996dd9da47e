"""Every admission algorithm decides an arrival the same way through every entry point.

An arrival reaches an algorithm through ``process(request)``,
``process_indexed(compiled, i)``, ``process_compiled_range(compiled, lo, hi)``
or a streaming session's ``submit``/``submit_batch``.  For every registered
admission algorithm, plus ``doubling-fractional``, on both weight backends,
all four must give the same normalized decision log on one instance that has
SMALL, BIG and FORCED arrivals where the algorithm has those classes, and the
guess-and-double wrappers the same guesses.
"""

import numpy as np
import pytest

from repro.core.doubling import DoublingFractionalAdmissionControl
from repro.engine.registry import ADMISSION_ALGORITHMS
from repro.engine.runtime import ensure_builtin_registrations, make_admission_algorithm
from repro.engine.streaming import StreamingSession, _normalize_decision
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_instance
from repro.instances.request import Request

ensure_builtin_registrations()

BACKENDS = ("python", "numpy")
FORCED_TAG = "forced"
#: With m = 6 edges of capacity 2 and alpha = 4, costs below 1/3 are SMALL
#: and costs above 8 are BIG for the algorithms built with a fixed guess.
ALPHA = 4.0
#: Extra keywords of the algorithms that have cost classes.
CLASSED = {
    "fractional": {"alpha": ALPHA, "force_accept_tags": (FORCED_TAG,)},
    "randomized": {"alpha": ALPHA, "force_accept_tags": (FORCED_TAG,)},
    "doubling": {"force_accept_tags": (FORCED_TAG,)},
}
ALGORITHMS = sorted(ADMISSION_ALGORITHMS.keys()) + ["doubling-fractional"]


def mixed_instance() -> AdmissionInstance:
    """48 overloading arrivals over 6 edges, with SMALL, BIG and FORCED costs and tags."""
    rng = np.random.default_rng(11)
    edges = [f"e{k}" for k in range(6)]
    costs = [0.01, 1.0, 1.5, 2.0, 3.0, 60.0]
    requests = []
    for rid in range(48):
        path = rng.choice(edges, size=int(rng.integers(1, 4)), replace=False).tolist()
        cost = costs[int(rng.integers(len(costs)))]
        requests.append(Request(rid, frozenset(path), cost, tag=FORCED_TAG if rid % 9 == 5 else None))
    return AdmissionInstance({e: 2 for e in edges}, requests, name="mixed")


def build(key, instance, backend):
    if key == "doubling-fractional":
        return DoublingFractionalAdmissionControl.for_instance(
            instance, backend=backend, force_accept_tags=(FORCED_TAG,)
        )
    return make_admission_algorithm(
        key, instance, random_state=5, backend=backend, **CLASSED.get(key, {})
    )


def outcome(algorithm):
    """The normalized decision log, and the guesses of a guess-and-double wrapper."""
    log = [_normalize_decision(d) for d in algorithm.decisions()]
    schedule = getattr(algorithm, "schedule", None)
    return log, None if schedule is None else list(schedule.phase_alphas)


def via_process(key, instance, backend):
    algorithm = build(key, instance, backend)
    for request in instance.requests:
        algorithm.process(request)
    return outcome(algorithm)


def via_process_indexed(key, instance, backend):
    algorithm = build(key, instance, backend)
    compiled = compile_instance(instance)
    for i in range(compiled.num_requests):
        algorithm.process_indexed(compiled, i)
    return outcome(algorithm)


def via_uneven_ranges(key, instance, backend):
    algorithm = build(key, instance, backend)
    compiled = compile_instance(instance)
    bounds = [0, 1, 4, 11, 12, 29, compiled.num_requests]
    for lo, hi in zip(bounds, bounds[1:]):
        algorithm.process_compiled_range(compiled, lo, hi)
    return outcome(algorithm)


def via_session(key, instance, backend):
    algorithm = build(key, instance, backend)
    session = StreamingSession(instance.capacities, algorithm=algorithm)
    requests = list(instance.requests)
    bounds = [0, 3, 10, 26, len(requests)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if k % 2:
            for request in requests[lo:hi]:
                entry = session.submit(request)
                assert entry["id"] == request.request_id
        else:
            session.submit_batch(requests[lo:hi])
    log, phases = outcome(algorithm)
    assert session.decision_log() == log
    return log, phases


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", ALGORITHMS)
def test_every_entry_point_gives_the_same_decisions(key, backend):
    instance = mixed_instance()
    log, phases = via_process(key, instance, backend)
    assert len(log) >= instance.num_requests
    if key.startswith("doubling"):
        assert len(phases) >= 2
    if key in ("fractional", "doubling-fractional"):
        events = {entry["event"] for entry in log}
        assert events == {"small", "big", "forced", "normal"}
    for path in (via_process_indexed, via_uneven_ranges, via_session):
        assert path(key, instance, backend) == (log, phases), path.__name__
