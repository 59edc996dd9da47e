"""Tests for the NumPy weight backend and the cross-backend equivalence gate.

The scalar :class:`~repro.engine.backends.PythonWeightBackend` is already
covered by ``test_core_weights.py``; here the vectorized backend is held to
the same behaviours, and the two backends are pinned to each other within
1e-9 on the canonical instances — the honesty check of the whole refactor.
"""

import numpy as np
import pytest

from repro.core.fractional import FractionalAdmissionControl
from repro.engine.backends import (
    NumpyWeightBackend,
    PythonWeightBackend,
    make_weight_backend,
)
from repro.engine.config import EngineConfig
from repro.engine.numba_backend import NumbaWeightBackend
from repro.engine.registry import UnknownKeyError
from repro.instances.canonical import (
    single_edge_overload,
    star_congestion,
    triangle_weighted,
    two_edge_chain,
)

TOL = 1e-9

CANONICAL = {
    "single-edge-overload": single_edge_overload,
    "star-congestion": star_congestion,
    "two-edge-chain": two_edge_chain,
    "triangle-weighted": triangle_weighted,
}


def make_numpy_state(capacities=None, g=2.0, max_capacity=None):
    return NumpyWeightBackend(capacities or {"e": 1}, g=g, max_capacity=max_capacity)


class TestNumpyBackendBasics:
    def test_register_starts_at_zero_weight(self):
        state = make_numpy_state()
        state.register(0, ["e"], 1.0)
        assert state.weight(0) == 0.0
        assert state.requests_on("e") == {0}
        assert state.alive_requests("e") == {0}

    def test_duplicate_registration_rejected(self):
        state = make_numpy_state()
        state.register(0, ["e"], 1.0)
        with pytest.raises(ValueError):
            state.register(0, ["e"], 1.0)

    def test_unknown_edge_rejected(self):
        state = make_numpy_state()
        with pytest.raises(ValueError):
            state.register(0, ["missing"], 1.0)

    def test_non_positive_cost_rejected(self):
        state = make_numpy_state()
        with pytest.raises(ValueError):
            state.register(0, ["e"], 0.0)

    def test_seed_weight_formula(self):
        state = NumpyWeightBackend({"e": 4}, g=8.0)
        assert state.seed_weight == pytest.approx(1.0 / 32.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            NumpyWeightBackend({"e": -1}, g=1.0)

    def test_storage_grows_past_initial_capacity(self):
        state = make_numpy_state({"e": 1000})
        for rid in range(300):  # initial slot capacity is 64
            state.register(rid, ["e"], 1.0)
        assert state.weights() == {rid: 0.0 for rid in range(300)}
        assert state.alive_count("e") == 300

    def test_kill_removes_from_all_edges(self):
        state = make_numpy_state({"a": 0, "b": 5}, g=1.0, max_capacity=1)
        # Seed weight is 1, so the first augmentation kills immediately.
        outcome = state.process_arrival(0, ["a", "b"], 1.0)
        assert state.is_dead(0)
        assert outcome.newly_dead == {0}
        assert state.alive_requests("a") == set()
        assert state.alive_requests("b") == set()
        assert state.alive_count("b") == 0

    def test_invariants_clean_after_processing(self):
        state = make_numpy_state({"e": 2}, g=4.0)
        for rid in range(8):
            state.process_arrival(rid, ["e"], 1.0)
        assert state.check_invariants() == []

    def test_register_after_edge_compacted_to_empty(self):
        """Regression: a fully-dead edge's slot vector compacts to length 0;
        the next registration must regrow it instead of writing into nothing."""
        state = make_numpy_state({"e": 0}, g=1.0, max_capacity=1)
        # Seed weight is 1, so every arrival dies immediately on the
        # zero-capacity edge.
        for rid in range(3):
            state.process_arrival(rid, ["e"], 1.0)
        # Alive queries trigger the lazy compaction down to an empty vector.
        assert state.alive_requests("e") == set()
        state.process_arrival(99, ["e"], 1.0)
        assert state.requests_on("e") == {0, 1, 2, 99}
        assert state.is_dead(99)


class TestBackendFactory:
    def test_default_is_python(self):
        backend = make_weight_backend(None, {"e": 1}, g=2.0)
        assert isinstance(backend, PythonWeightBackend)
        assert backend.name == "python"

    def test_by_name(self):
        backend = make_weight_backend("numpy", {"e": 1}, g=2.0)
        assert isinstance(backend, NumpyWeightBackend)

    def test_by_engine_config(self):
        backend = make_weight_backend(EngineConfig(backend="numpy"), {"e": 1}, g=2.0)
        assert isinstance(backend, NumpyWeightBackend)

    def test_unknown_backend_lists_known(self):
        with pytest.raises(UnknownKeyError) as err:
            make_weight_backend("cuda", {"e": 1}, g=2.0)
        assert "python" in str(err.value) and "numpy" in str(err.value)

    def test_algorithm_rejects_unknown_backend(self):
        with pytest.raises(UnknownKeyError):
            FractionalAdmissionControl({"e": 2}, backend="fortran")


def _run_both_backends(capacities, arrivals, vector_cls, g=8.0):
    py = PythonWeightBackend(capacities, g=g)
    nb = vector_cls(capacities, g=g)
    for rid, edges, cost in arrivals:
        o_py = py.process_arrival(rid, edges, cost)
        o_nb = nb.process_arrival(rid, edges, cost)
        yield py, nb, o_py, o_nb


class TestCrossBackendEquivalence:
    """The refactor's gate: python and numpy agree within 1e-9 everywhere."""

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_canonical_instances_match(self, name):
        instance = CANONICAL[name]()
        py = FractionalAdmissionControl.for_instance(instance, backend="python")
        nb = FractionalAdmissionControl.for_instance(instance, backend="numpy")
        py.process_sequence(instance.requests)
        nb.process_sequence(instance.requests)
        assert py.fractional_cost() == pytest.approx(nb.fractional_cost(), abs=TOL)
        assert py.num_augmentations == nb.num_augmentations
        frac_py, frac_nb = py.fractions(), nb.fractions()
        assert set(frac_py) == set(frac_nb)
        for rid in frac_py:
            assert frac_py[rid] == pytest.approx(frac_nb[rid], abs=TOL), rid
        assert py.check_invariants() == []
        assert nb.check_invariants() == []

    # The numba class runs its plain-Python kernel when numba is absent.
    @pytest.mark.parametrize("vector_cls", [NumpyWeightBackend, NumbaWeightBackend])
    def test_arrival_outcomes_match_step_by_step(self, vector_cls):
        rng = np.random.default_rng(42)
        edges = [f"e{i}" for i in range(12)]
        capacities = {e: int(rng.integers(1, 4)) for e in edges}
        arrivals = []
        for rid in range(200):
            k = int(rng.integers(1, 4))
            path = [edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False)]
            arrivals.append((rid, path, float(rng.uniform(1.0, 6.0))))
        for py, nb, o_py, o_nb in _run_both_backends(capacities, arrivals, vector_cls):
            assert o_py.num_augmentations == o_nb.num_augmentations
            assert o_py.newly_dead == o_nb.newly_dead
            assert set(o_py.deltas) == set(o_nb.deltas)
            for rid, delta in o_py.deltas.items():
                assert delta == pytest.approx(o_nb.deltas[rid], abs=TOL)
        assert nb.total_augmentations == py.total_augmentations > 0

    def test_capacity_reduction_matches(self):
        capacities = {"a": 3, "b": 3}
        arrivals = [(rid, ["a", "b"], 1.0 + 0.25 * rid) for rid in range(10)]
        py = PythonWeightBackend(capacities, g=8.0)
        nb = NumpyWeightBackend(capacities, g=8.0)
        for rid, path, cost in arrivals:
            py.process_arrival(rid, path, cost)
            nb.process_arrival(rid, path, cost)
        o_py = py.process_capacity_reduction("a", triggered_by=99)
        o_nb = nb.process_capacity_reduction("a", triggered_by=99)
        assert py.capacity("a") == nb.capacity("a") == 2
        assert set(o_py.deltas) == set(o_nb.deltas)
        assert py.fractional_cost() == pytest.approx(nb.fractional_cost(), abs=TOL)

    def test_bicriteria_backends_match(self):
        from repro.core.bicriteria import BicriteriaOnlineSetCover
        from repro.core.protocols import run_setcover
        from repro.workloads import random_setcover_instance

        instance = random_setcover_instance(36, 16, 70, random_state=3)
        py = BicriteriaOnlineSetCover(instance.system, eps=0.2, backend="python")
        nb = BicriteriaOnlineSetCover(instance.system, eps=0.2, backend="numpy")
        r_py = run_setcover(py, instance)
        r_nb = run_setcover(nb, instance)
        assert r_py.chosen_sets == r_nb.chosen_sets
        assert r_py.cost == pytest.approx(r_nb.cost, abs=TOL)
        weights_py, weights_nb = py.set_weights(), nb.set_weights()
        assert set(weights_py) == set(weights_nb)
        for sid in weights_py:
            assert weights_py[sid] == pytest.approx(weights_nb[sid], abs=TOL)
        assert py.max_potential_seen == pytest.approx(nb.max_potential_seen, rel=1e-9)
