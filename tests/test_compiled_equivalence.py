"""Compiled-vs-uncompiled equivalence: the honesty gate of the array-native pipeline.

The compiled-instance layer (edge interning + CSR paths + indexed backend
fast paths + the record-free mode) exists purely for speed: every decision
log, every fraction and every cost must be identical — to 1e-9, and in
practice bit-for-bit — between

* the classic per-request path (``process(request)``), and
* the compiled path (``process_indexed(compiled, i)``),

for both weight backends and with diagnostics recording on and off, on the
canonical instances and across >= 10 random seeds.
"""

import numpy as np
import pytest

from repro.core.doubling import DoublingAdmissionControl, DoublingFractionalAdmissionControl
from repro.core.fractional import FractionalAdmissionControl
from repro.core.protocols import run_admission
from repro.core.randomized import RandomizedAdmissionControl
from repro.engine.runtime import make_admission_algorithm
from repro.engine.streaming import StreamingSession
from repro.instances.canonical import (
    single_edge_overload,
    star_congestion,
    triangle_weighted,
    two_edge_chain,
)
from repro.instances.compiled import compile_instance, compile_sequence, intern_edges
from repro.workloads import overloaded_edge_adversary

TOL = 1e-9
BACKENDS = ("python", "numpy")
SEEDS = list(range(10))

CANONICAL = {
    "single-edge-overload": single_edge_overload,
    "star-congestion": star_congestion,
    "two-edge-chain": two_edge_chain,
    "triangle-weighted": triangle_weighted,
}


def random_instance(seed: int):
    """A weighted multi-edge congestion instance with deep augmentation chains."""
    from repro.instances.admission import AdmissionInstance
    from repro.instances.request import Request, RequestSequence

    rng = np.random.default_rng(1000 + seed)
    edges = [f"e{i}" for i in range(12)]
    capacities = {e: int(c) for e, c in zip(edges, rng.integers(1, 4, size=len(edges)))}
    requests = []
    for rid in range(90):
        k = int(rng.integers(1, 4))
        path = [edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False)]
        requests.append(Request(rid, frozenset(path), float(rng.uniform(1.0, 6.0))))
    return AdmissionInstance(capacities, RequestSequence(requests), name=f"random-{seed}")


def unit_cost_instance(seed: int):
    """A unit-cost adversarial instance (the unweighted configuration)."""
    return overloaded_edge_adversary(16, 2, num_hot_edges=4, random_state=seed)


def fractional_log(algo):
    """Decision log reduced to its observable content (outcome objects aside)."""
    return [(d.request_id, d.cost_class, d.fraction_rejected) for d in algo.decisions()]


def assert_fractional_equal(a, b):
    assert fractional_log(a) == pytest.approx(fractional_log(b), abs=TOL)
    assert a.fractional_cost() == pytest.approx(b.fractional_cost(), abs=TOL)
    assert a.num_augmentations == b.num_augmentations
    fa, fb = a.fractions(), b.fractions()
    assert set(fa) == set(fb)
    for rid in fa:
        assert fa[rid] == pytest.approx(fb[rid], abs=TOL), rid


def admission_log(result):
    return [(d.request_id, d.kind, d.at_request) for d in result.decisions]


class TestFractionalCompiledEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_canonical(self, name, backend, record):
        instance = CANONICAL[name]()
        plain = FractionalAdmissionControl.for_instance(instance, backend=backend, record=record)
        plain.process_sequence(instance.requests)
        compiled_algo = FractionalAdmissionControl.for_instance(
            instance, backend=backend, record=record
        )
        compiled_algo.process_compiled_sequence(compile_instance(instance))
        assert_fractional_equal(plain, compiled_algo)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_weighted(self, seed, backend, record):
        instance = random_instance(seed)
        plain = FractionalAdmissionControl.for_instance(instance, backend=backend, record=record)
        plain.process_sequence(instance.requests)
        compiled_algo = FractionalAdmissionControl.for_instance(
            instance, backend=backend, record=record
        )
        compiled_algo.process_compiled_sequence(compile_instance(instance))
        assert_fractional_equal(plain, compiled_algo)
        assert compiled_algo.check_invariants() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_alpha_classing_and_capacity_reduction_batch(self, seed, backend):
        """R_big / R_small classing (the batched capacity reductions) included."""
        instance = random_instance(seed)
        costs = [r.cost for r in instance.requests]
        # big threshold = 2 * alpha = the 40th cost percentile, so a healthy
        # chunk of requests goes through the R_big capacity-reduction batch.
        alpha = float(np.percentile(costs, 40)) / 2.0
        for record in (True, False):
            plain = FractionalAdmissionControl.for_instance(
                instance, backend=backend, alpha=alpha, record=record
            )
            plain.process_sequence(instance.requests)
            compiled_algo = FractionalAdmissionControl.for_instance(
                instance, backend=backend, alpha=alpha, record=record
            )
            compiled_algo.process_compiled_sequence(compile_instance(instance))
            assert_fractional_equal(plain, compiled_algo)
            # The preprocessing must actually have fired for the test to mean
            # anything.
            classes = {d.cost_class for d in plain.decisions()}
            assert "big" in classes or "small" in classes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_off_matches_record_on(self, backend):
        """The record-free mode changes diagnostics only, never the numbers."""
        instance = random_instance(3)
        on = FractionalAdmissionControl.for_instance(instance, backend=backend, record=True)
        on_decisions = [on.process(request) for request in instance.requests]
        off = FractionalAdmissionControl.for_instance(instance, backend=backend, record=False)
        off_decisions = [off.process(request) for request in instance.requests]
        assert_fractional_equal(on, off)
        assert all(d.outcome is not None for d in on_decisions if d.cost_class == "normal")
        assert all(d.outcome is None for d in off_decisions)
        steps = sum(d.outcome.num_augmentations for d in on_decisions if d.outcome is not None)
        assert steps == on.num_augmentations > 0

    @pytest.mark.parametrize("through", ["compiled", "session"])
    def test_translation_fallback_for_misaligned_edge_order(self, through):
        """A compiled view with a different interning order still matches."""
        instance = random_instance(5)
        reversed_caps = dict(reversed(list(instance.capacities.items())))
        plain = FractionalAdmissionControl.for_instance(instance, backend="numpy")
        plain.process_sequence(instance.requests)
        translated = FractionalAdmissionControl.for_instance(instance, backend="numpy")
        if through == "compiled":
            compiled = compile_sequence(instance.requests, reversed_caps)
            translated.process_compiled_sequence(compiled)
        else:
            # A session interning the reversed order around the externally
            # built algorithm: every micro-batch goes through the translation.
            session = StreamingSession(reversed_caps, algorithm=translated)
            session.submit_stream(iter(instance.requests), batch_size=7)
        assert_fractional_equal(plain, translated)


class TestRandomizedCompiledEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_randomized_decision_logs_identical(self, seed, backend):
        instance = random_instance(seed)
        plain = RandomizedAdmissionControl.for_instance(
            instance, random_state=seed, backend=backend
        )
        plain_result = run_admission(plain, instance)
        fast = RandomizedAdmissionControl.for_instance(
            instance, random_state=seed, backend=backend
        )
        fast_result = run_admission(fast, instance, compiled=compile_instance(instance))
        assert admission_log(plain_result) == admission_log(fast_result)
        assert plain_result.rejection_cost == pytest.approx(fast_result.rejection_cost, abs=TOL)
        assert plain_result.accepted_ids == fast_result.accepted_ids
        assert plain_result.extra["fractional_cost"] == pytest.approx(
            fast_result.extra["fractional_cost"], abs=TOL
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_doubling_decision_logs_identical(self, seed, backend):
        instance = unit_cost_instance(seed)
        plain = DoublingAdmissionControl.for_instance(
            instance, random_state=seed, backend=backend
        )
        plain_result = run_admission(plain, instance)
        fast = DoublingAdmissionControl.for_instance(
            instance, random_state=seed, backend=backend
        )
        fast_result = run_admission(fast, instance, compiled=compile_instance(instance))
        assert admission_log(plain_result) == admission_log(fast_result)
        assert plain_result.rejection_cost == pytest.approx(fast_result.rejection_cost, abs=TOL)
        assert plain.schedule.phase_alphas == fast.schedule.phase_alphas

    def test_doubling_fractional_compiled(self):
        instance = random_instance(7)
        plain = DoublingFractionalAdmissionControl.for_instance(instance, backend="numpy")
        plain.process_sequence(instance.requests)
        fast = DoublingFractionalAdmissionControl.for_instance(instance, backend="numpy")
        fast.process_sequence(compile_instance(instance))
        assert plain.fractional_cost() == pytest.approx(fast.fractional_cost(), abs=TOL)
        assert plain.fractions() == pytest.approx(fast.fractions(), abs=TOL)
        assert plain.schedule.phase_alphas == fast.schedule.phase_alphas


class TestCompiledInstanceStructure:
    def test_interning_matches_capacity_order(self):
        instance = random_instance(0)
        compiled = compile_instance(instance)
        assert list(compiled.edge_order) == list(instance.capacities)
        assert compiled.capacities_by_id() == instance.capacities
        assert compiled.num_requests == instance.num_requests

    def test_csr_slices_match_request_edges(self):
        instance = random_instance(1)
        compiled = compile_instance(instance)
        for i, request in enumerate(instance.requests):
            edges = {compiled.edge_order[k] for k in compiled.edge_indices(i).tolist()}
            assert edges == set(request.edges)
            assert compiled.costs[i] == request.cost
            assert compiled.request_ids[i] == request.request_id
            assert compiled.request(i) is instance.requests[i]

    def test_compile_instance_memoizes(self):
        instance = random_instance(2)
        assert compile_instance(instance) is compile_instance(instance)

    def test_unknown_edge_rejected(self):
        instance = random_instance(2)
        partial = dict(list(instance.capacities.items())[:2])
        with pytest.raises(ValueError, match="no capacity entry"):
            compile_sequence(instance.requests, partial)
        with pytest.raises(ValueError, match="no capacity entry"):
            compile_sequence(instance.requests, intern_edges(partial))

    def test_compile_against_interning_builds_only_paths(self):
        """Batches compiled against one interning share it and match a full compile."""
        instance = random_instance(3)
        requests = list(instance.requests)
        interning = intern_edges(instance.capacities)
        assert not interning.capacities.flags.writeable
        for lo, hi in ((0, 5), (5, 9), (9, 40)):
            batch = compile_sequence(requests[lo:hi], interning)
            reference = compile_sequence(requests[lo:hi], instance.capacities)
            assert batch.interning is interning
            assert batch.edge_order == reference.edge_order
            assert batch.capacities_by_id() == instance.capacities
            for field in ("capacities", "indptr", "indices", "costs", "request_ids"):
                expected = getattr(reference, field)
                actual = getattr(batch, field)
                assert actual.dtype == expected.dtype
                assert np.array_equal(actual, expected)
            assert batch.tags == reference.tags


class TestEngineCompiledPipeline:
    def test_engine_compile_toggle_is_invisible(self):
        instance = unit_cost_instance(1)
        runs = {}
        for compile_flag in (True, False):
            algo = make_admission_algorithm(
                "randomized", instance, random_state=42, backend="numpy", weighted=False
            )
            compiled = compile_instance(instance) if compile_flag else None
            runs[compile_flag] = run_admission(algo, instance, compiled=compiled)
        assert admission_log(runs[True]) == admission_log(runs[False])
        assert runs[True].rejection_cost == pytest.approx(runs[False].rejection_cost, abs=TOL)

    def test_run_admission_compiled_with_baseline_algorithm(self):
        """run_admission(compiled=...) degrades gracefully for plain algorithms."""
        instance = unit_cost_instance(3)
        compiled = compile_instance(instance)
        algo = make_admission_algorithm("reject-when-full", instance)
        result = run_admission(algo, instance, compiled=compiled)
        plain = run_admission(
            make_admission_algorithm("reject-when-full", instance), instance
        )
        assert admission_log(result) == admission_log(plain)
