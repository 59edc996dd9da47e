"""``fractional_cost`` is bit-identical to the scalar loop it replaced.

The guess-and-double wrappers compare the cost with a threshold after every
arrival, so a last-bit difference could move a doubling phase and every later
decision.  Every check here is ``==``, never approx.
"""

import numpy as np
import pytest

from repro.core.doubling import DoublingAdmissionControl, DoublingFractionalAdmissionControl
from repro.core.fractional import CostClass, FractionalAdmissionControl
from repro.engine.streaming import StreamingSession
from repro.instances.admission import AdmissionInstance
from repro.instances.compiled import compile_instance
from repro.instances.request import Request, RequestSequence

BACKENDS = ["python", "numpy"]


def reference_cost(algorithm: FractionalAdmissionControl, costs: dict) -> float:
    """The scalar loop: R_small total, then min(f, 1) * p per NORMAL request.

    ``costs`` maps each request id to its original cost; the classes and the
    arrival order come from the algorithm's decision log.
    """
    decisions = algorithm.decisions()
    total = 0.0
    for d in decisions:
        if d.cost_class == CostClass.SMALL:
            total += costs[d.request_id]
    weights = algorithm.weight_state
    for d in decisions:
        if d.cost_class == CostClass.NORMAL:
            total += min(weights.weight(d.request_id), 1.0) * costs[d.request_id]
    return total


def costs_of(instance: AdmissionInstance) -> dict:
    """Request id -> original cost."""
    return {request.request_id: request.cost for request in instance.requests}


def mixed_instance(
    seed: int,
    n: int = 400,
    m: int = 10,
    capacity: int = 3,
    costs: tuple = (0.02, 50.0),
    forced: float = 0.03,
    first_id: int = 0,
) -> AdmissionInstance:
    """Random paths with log-uniform costs and a share of forced tags."""
    rng = np.random.default_rng(seed)
    requests = []
    for rid in range(first_id, first_id + n):
        edges = rng.choice(m, size=int(rng.integers(1, 4)), replace=False)
        cost = float(np.exp(rng.uniform(np.log(costs[0]), np.log(costs[1]))))
        tag = "element" if rng.random() < forced else None
        requests.append(Request(rid, {f"e{e}" for e in edges.tolist()}, cost, tag=tag))
    return AdmissionInstance({f"e{e}": capacity for e in range(m)}, RequestSequence(requests))


def phased_instance(n: int = 500, m: int = 8, capacity: int = 2) -> AdmissionInstance:
    """Costs in [1, 2) on heavily overloaded edges: the guess doubles repeatedly."""
    rng = np.random.default_rng(5)
    requests = []
    for rid in range(n):
        edges = rng.choice(m, size=int(rng.integers(1, 3)), replace=False)
        requests.append(Request(rid, {f"e{e}" for e in edges.tolist()}, float(rng.uniform(1, 2))))
    return AdmissionInstance({f"e{e}": capacity for e in range(m)}, RequestSequence(requests))


def _algorithm(instance, backend, record, alpha=1.0):
    return FractionalAdmissionControl(
        instance.capacities, alpha=alpha, backend=backend, record=record,
        force_accept_tags={"element"},
    )


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
class TestMatchesScalarLoop:
    @pytest.mark.parametrize("alpha", [None, 1.0, 4.0, 12.0])
    def test_after_every_arrival(self, backend, record, alpha):
        instance = mixed_instance(1)
        costs = costs_of(instance)
        algorithm = _algorithm(instance, backend, record, alpha=alpha)
        for request in instance.requests:
            algorithm.process(request)
            assert algorithm.fractional_cost() == reference_cost(algorithm, costs)
        if alpha is not None:
            classes = {d.cost_class for d in algorithm.decisions()}
            assert classes == {CostClass.SMALL, CostClass.BIG, CostClass.NORMAL, CostClass.FORCED}

    def test_compiled_per_arrival(self, backend, record):
        instance = mixed_instance(2)
        costs = costs_of(instance)
        compiled = compile_instance(instance)
        algorithm = _algorithm(instance, backend, record)
        for i in range(compiled.num_requests):
            algorithm.process_indexed(compiled, i)
            assert algorithm.fractional_cost() == reference_cost(algorithm, costs)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_compiled_ranges(self, backend, record, vectorized, monkeypatch):
        # Long inert stretches (cold entries only) followed by saturation
        # (hot entries stepped); the block kernel runs in both record modes.
        shape = dict(m=40, capacity=12, costs=(0.002, 3.5))
        calm = mixed_instance(3, n=200, forced=0.0, **shape)
        hot = mixed_instance(4, n=700, forced=0.01, first_id=200, **shape)
        requests = list(calm.requests) + list(hot.requests)
        instance = AdmissionInstance(calm.capacities, RequestSequence(requests))
        costs = costs_of(instance)
        compiled = compile_instance(instance)
        algorithm = _algorithm(instance, backend, record, alpha=2.0)
        calls = {"register_batch_indexed": 0, "process_arrival_block_indexed": 0}
        for name in calls:
            original = getattr(algorithm.weight_state, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(algorithm.weight_state, name, spy)
        for lo in range(0, compiled.num_requests, 150):
            hi = min(lo + 150, compiled.num_requests)
            algorithm.process_compiled_range(compiled, lo, hi, vectorized=vectorized)
            assert algorithm.fractional_cost() == reference_cost(algorithm, costs)
        if vectorized:
            assert calls["process_arrival_block_indexed"] > 0
        else:
            assert calls == {"register_batch_indexed": 0, "process_arrival_block_indexed": 0}

    def test_after_restore(self, backend, record):
        instance = mixed_instance(5)
        costs = costs_of(instance)
        requests = list(instance.requests)
        original = _algorithm(instance, backend, record)
        for request in requests[:250]:
            original.process(request)
        assert original.fractional_cost() == reference_cost(original, costs)
        restored = _algorithm(instance, backend, record)
        restored.restore_state(original.export_state())
        assert restored.fractional_cost() == reference_cost(restored, costs)
        assert restored.fractional_cost() == original.fractional_cost()
        for request in requests[250:]:
            original.process(request)
            restored.process(request)
            assert restored.fractional_cost() == reference_cost(restored, costs)
            assert restored.fractional_cost() == original.fractional_cost()

    def test_fractions_unchanged(self, backend, record):
        instance = mixed_instance(6)
        algorithm = _algorithm(instance, backend, record)
        algorithm.process_sequence(instance.requests)
        expected = {
            d.request_id: algorithm.fraction_rejected(d.request_id) for d in algorithm.decisions()
        }
        fractions = algorithm.fractions()
        assert list(fractions.items()) == list(expected.items())
        assert all(type(f) is float for f in fractions.values())


@pytest.mark.parametrize("backend", BACKENDS)
def test_doubling_fractional_matches_scalar_loop(backend):
    instance = phased_instance()
    costs = costs_of(instance)
    algorithm = DoublingFractionalAdmissionControl(instance.capacities, backend=backend)
    for request in instance.requests:
        algorithm.process(request)
        assert algorithm.fractional_cost() == reference_cost(algorithm.inner, costs)
    assert algorithm.schedule.num_phases >= 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_weight_array_is_registration_order(backend):
    instance = mixed_instance(7)
    algorithm = _algorithm(instance, backend, record=False)
    algorithm.process_sequence(instance.requests)
    weights = algorithm.weight_state
    array = weights.weight_array()
    assert array.dtype == np.float64
    assert array.tolist() == list(weights.weights().values())
    assert list(weights.weights()) == [
        d.request_id for d in algorithm.decisions() if d.cost_class == CostClass.NORMAL
    ]


def _run_session(instance, backend):
    session = StreamingSession(
        instance.capacities, algorithm="doubling", backend=backend, seed=11
    )
    requests = list(instance.requests)
    log = []
    for lo in range(0, len(requests), 64):
        log += session.submit_batch(requests[lo : lo + 64])
    return log, list(session.algorithm.schedule.phase_alphas)


@pytest.mark.parametrize("backend", BACKENDS)
def test_doubling_session_decisions_match_scalar_loop(backend, monkeypatch):
    instance = phased_instance()
    log, phases = _run_session(instance, backend)
    assert len(phases) >= 3
    costs = costs_of(instance)
    monkeypatch.setattr(
        FractionalAdmissionControl, "fractional_cost", lambda self: reference_cost(self, costs)
    )
    reference_log, reference_phases = _run_session(instance, backend)
    assert phases == reference_phases
    assert log == reference_log


@pytest.mark.parametrize(
    "wrapper", [DoublingAdmissionControl, DoublingFractionalAdmissionControl]
)
def test_cost_read_once_per_arrival_after_first_guess(wrapper, monkeypatch):
    reads = []
    real = FractionalAdmissionControl.fractional_cost

    def counting(self):
        reads.append(1)
        return real(self)

    monkeypatch.setattr(FractionalAdmissionControl, "fractional_cost", counting)
    instance = phased_instance()
    algorithm = wrapper(instance.capacities)
    guessed = 0
    for request in instance.requests:
        before = len(reads)
        algorithm.process(request)
        if algorithm.schedule.alpha is None:
            assert len(reads) == before
        else:
            guessed += 1
            assert len(reads) == before + 1
    assert 0 < guessed < len(instance.requests)
