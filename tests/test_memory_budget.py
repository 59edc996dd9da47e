"""Per-arrival state stays in columns: bytes and GC-tracked objects per arrival.

The fractional algorithm's row table, the numpy weight backend's slots and
the integral decision log keep one row per arrival in typed columns
(``array.array`` or NumPy), not one Python object per arrival.  These
budgets pin that down the way ``benchmarks/profile_memory.py`` measures it:
tracemalloc around the run, read after ``gc.collect()``, with the inputs
built before tracing starts, so only what the algorithm keeps is counted.

Measured on CPython 3.11 / NumPy 2.4: the replay below keeps about 345 B and
0.00 GC-tracked objects per arrival (about 610 B and 1.03 when the state was
per-arrival objects), and the session about 525 B and 0.00 (about 885 B and
2.2).  The budgets leave room for other Python versions' object sizes.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.core.fractional import FractionalAdmissionControl
from repro.engine.streaming import StreamingSession
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_instance
from repro.instances.request import Request, RequestSequence

ARRIVALS = 12_000


def hot_spot_instance(seed: int = 5, n: int = ARRIVALS) -> AdmissionInstance:
    """Paths of 3 distinct background edges, a fifth of them rerouted over 8 hot edges.

    Background capacities sit just above their demand, so only the hot edges
    (capacity 24) overflow, and the weight mechanism does real work there.
    """
    rng = np.random.default_rng(seed)
    background, hot = 300, 8
    paths = np.array([rng.choice(background, size=3, replace=False) for _ in range(n)])
    flash = rng.random(n) < 0.2
    paths[flash, 0] = background + rng.integers(0, hot, size=int(flash.sum()))
    demand = np.bincount(paths.ravel(), minlength=background + hot)
    capacities = {e: math.ceil(int(demand[e]) / 0.97) or 1 for e in range(background)}
    capacities.update({background + h: 24 for h in range(hot)})
    costs = rng.uniform(1.0, 8.0, size=n)
    requests = [
        Request(rid, frozenset(path), float(cost))
        for rid, (path, cost) in enumerate(zip(paths.tolist(), costs.tolist()))
    ]
    return AdmissionInstance(capacities, RequestSequence(requests), name="hot-spot")


def traced(run):
    """``run()``'s result, the traced bytes it still holds and the GC-tracked objects it added."""
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        kept = run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept, grown, len(gc.get_objects()) - objects


@pytest.fixture(scope="module")
def instance():
    return hot_spot_instance()


def test_fractional_replay_keeps_columns(instance):
    compiled = compile_instance(instance)

    def run():
        replay = FractionalAdmissionControl.for_instance(instance, backend="numpy")
        replay.process_compiled_range(compiled, 0, compiled.num_requests)
        return replay

    replay, grown, added = traced(run)
    assert replay.num_augmentations > 0, "the hot edges never overflowed"
    assert grown / ARRIVALS <= 500, f"{grown / ARRIVALS:.0f} B kept per arrival"
    assert added / ARRIVALS <= 0.1, f"{added / ARRIVALS:.2f} GC-tracked objects per arrival"


def test_randomized_session_keeps_columns(instance):
    requests = list(instance.requests)

    def run():
        session = StreamingSession(
            instance.capacities, algorithm="randomized", backend="numpy", seed=5,
            retain_log=False,
        )
        for lo in range(0, len(requests), 8):
            session.submit_batch(requests[lo : lo + 8])
        return session

    session, grown, added = traced(run)
    assert session.num_decisions >= ARRIVALS
    assert grown / ARRIVALS <= 700, f"{grown / ARRIVALS:.0f} B kept per arrival"
    assert added / ARRIVALS <= 0.4, f"{added / ARRIVALS:.2f} GC-tracked objects per arrival"
