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


def _csr(backend, arrivals):
    """Block-kernel arguments (ids, costs, flat edge indices, offsets) for arrivals."""
    paths = [backend.edge_indices_of(path) for _, path, _ in arrivals]
    offsets = np.zeros(len(arrivals) + 1, dtype=np.intp)
    np.cumsum([len(p) for p in paths], out=offsets[1:])
    flat = np.array([k for p in paths for k in p], dtype=np.intp)
    costs = np.array([cost for _, _, cost in arrivals], dtype=np.float64)
    return [rid for rid, _, _ in arrivals], costs, flat, offsets


def _dead_ids(backend):
    """The ids of the backend's dead requests."""
    return {rid for rid in backend.weights() if backend.is_dead(rid)}


class TestRoomSplitKernel:
    """One ``process_arrival_block_indexed`` call equals the per-arrival loop, bit for bit.

    Each case runs the same arrivals through two fresh backends of one class:
    one by one through ``process_arrival_indexed`` and in block calls.  The
    weights, counters, slot vectors, kills, fractions and (with ``record``)
    the outcomes must be equal, not merely close.
    """

    # x runs out of room partway through the block; y is full at entry; z has
    # capacity 0; w and v keep room throughout.
    CAPACITIES = {"x": 2, "y": 1, "z": 0, "w": 4, "v": 3}
    PREFIX = [(0, ("y",), 2.0)]
    BLOCK = [
        (1, ("x", "w"), 1.0),  # cold, cold
        (2, ("x", "v"), 4.0),  # cold, cold: x's room is used up
        (3, ("x", "y"), 4.0),  # two hot entries
        (4, ("z",), 3.0),  # capacity 0: hot, and killed
        (5, ("w", "v"), 2.0),  # cold, cold
        (6, ("x", "w"), 4.0),  # hot x kills request 1, lowering cold edge w's count
        (7, ("w",), 2.0),  # cold
    ]

    def _run(self, cls, record, prefix, blocks, capacities=None, g=2.0):
        capacities = capacities or self.CAPACITIES
        ref, blk = cls(capacities, g=g), cls(capacities, g=g)
        for backend in (ref, blk):
            for rid, path, cost in prefix:
                backend.process_arrival_indexed(rid, backend.edge_indices_of(path), cost)
        ref_fractions, ref_outcomes, blk_fractions, blk_outcomes = [], [], [], []
        for block in blocks:
            for rid, path, cost in block:
                ref_outcomes.append(
                    ref.process_arrival_indexed(rid, ref.edge_indices_of(path), cost, record=record)
                )
                ref_fractions.append(min(ref.weight(rid), 1.0))
            fractions, outcomes = blk.process_arrival_block_indexed(*_csr(blk, block), record)
            blk_fractions.extend(fractions.tolist())
            if record:
                blk_outcomes.extend(outcomes)
            else:
                assert outcomes is None
        assert blk.weight_array().tobytes() == ref.weight_array().tobytes()
        assert blk.total_augmentations == ref.total_augmentations
        assert blk._edge_alive == ref._edge_alive
        for e in range(ref.num_edges):
            if ref._edge_slots[e] is None:
                assert blk._edge_slots[e] is None
            else:
                used = ref._edge_used[e]
                assert blk._edge_used[e] == used
                assert blk._edge_slots[e][:used].tobytes() == ref._edge_slots[e][:used].tobytes()
        assert _dead_ids(blk) == _dead_ids(ref)
        assert blk_fractions == ref_fractions
        if record:
            assert len(blk_outcomes) == len(ref_outcomes)
            for mine, theirs in zip(blk_outcomes, ref_outcomes):
                assert mine.request_id == theirs.request_id
                assert mine.deltas == theirs.deltas
                assert mine.newly_dead == theirs.newly_dead
                assert mine.num_augmentations == theirs.num_augmentations
        return ref

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("cls", [NumpyWeightBackend, NumbaWeightBackend])
    def test_hand_built_block(self, cls, record):
        ref = self._run(cls, record, self.PREFIX, [self.BLOCK])
        assert ref.total_augmentations > 0
        assert ref.is_dead(1) and ref.is_dead(4)
        assert not ref.is_dead(5) and not ref.is_dead(7)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("cls", [NumpyWeightBackend, NumbaWeightBackend])
    def test_state_carries_across_calls(self, cls, record):
        rng = np.random.default_rng(9)
        edges = [f"e{i}" for i in range(10)]
        capacities = {e: int(rng.integers(0, 6)) for e in edges}
        arrivals = []
        for rid in range(300):
            k = int(rng.integers(1, 4))
            path = tuple(edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False))
            arrivals.append((rid, path, float(rng.uniform(1.0, 6.0))))
        blocks = [arrivals[:1], arrivals[1:120], arrivals[120:121], arrivals[121:]]
        ref = self._run(cls, record, [], blocks, capacities=capacities, g=8.0)
        assert ref.total_augmentations > 0 and _dead_ids(ref)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("cls", [NumpyWeightBackend, NumbaWeightBackend])
    def test_block_without_hot_entries(self, cls, record):
        block = [(1, ("w",), 1.0), (2, ("w", "v"), 2.0), (3, ("v", "x"), 3.0)]
        ref = self._run(cls, record, self.PREFIX, [block])
        assert ref.total_augmentations == 0

    @pytest.mark.parametrize(
        "bad",
        [(0, ("w",), 1.0), (2, ("w",), 1.0), (3, ("w",), 0.0), (3, ("w",), -1.0)],
        ids=["registered-id", "repeated-id", "zero-cost", "negative-cost"],
    )
    @pytest.mark.parametrize("cls", [NumpyWeightBackend, NumbaWeightBackend])
    def test_refused_block_leaves_no_trace(self, cls, bad):
        backend = cls(self.CAPACITIES, g=2.0)
        for rid, path, cost in self.PREFIX:
            backend.process_arrival_indexed(rid, backend.edge_indices_of(path), cost)
        before, alive = backend.export_state(), list(backend._edge_alive)
        # The refused arrival comes after two valid ones that would overload x.
        block = [(1, ("x", "y"), 1.0), (2, ("x", "y"), 1.0), bad]
        with pytest.raises(ValueError):
            backend.process_arrival_block_indexed(*_csr(backend, block))
        assert backend.export_state() == before
        assert backend._edge_alive == alive


class TestAtomicRefusals:
    """A refused block or batch registration changes nothing, on every backend.

    The python backend runs the base class's reference loops, which check
    every id (and, on the block path, every cost) before the first arrival.
    """

    CAPACITIES = {"x": 1, "y": 1}
    GOOD = [(1, ("x", "y"), 1.0), (2, ("x", "y"), 1.0)]

    def _backend(self, cls):
        backend = cls(self.CAPACITIES, g=2.0)
        backend.process_arrival_indexed(0, backend.edge_indices_of(("x",)), 1.0)
        return backend

    @pytest.mark.parametrize(
        "bad",
        [(0, ("x",), 1.0), (1, ("x",), 1.0), (3, ("x",), 0.0), (3, ("x",), -1.0)],
        ids=["registered-id", "repeated-id", "zero-cost", "negative-cost"],
    )
    @pytest.mark.parametrize("cls", [PythonWeightBackend, NumpyWeightBackend])
    def test_refused_block_changes_nothing(self, cls, bad):
        backend = self._backend(cls)
        before = backend.export_state()
        with pytest.raises(ValueError):
            backend.process_arrival_block_indexed(*_csr(backend, [*self.GOOD, bad]))
        assert backend.export_state() == before
        assert backend.total_augmentations == 0

    @pytest.mark.parametrize(
        "bad", [(0, ("x",), 1.0), (1, ("x",), 1.0)], ids=["registered-id", "repeated-id"]
    )
    @pytest.mark.parametrize("cls", [PythonWeightBackend, NumpyWeightBackend])
    def test_refused_batch_registration_changes_nothing(self, cls, bad):
        backend = self._backend(cls)
        before = backend.export_state()
        with pytest.raises(ValueError, match="already registered"):
            backend.register_batch_indexed(*_csr(backend, [*self.GOOD, bad]))
        assert backend.export_state() == before
