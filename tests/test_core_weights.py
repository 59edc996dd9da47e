"""Unit tests for the shared fractional weight mechanism (Section 2 machinery)."""

import pytest

from repro.engine.backends import PythonWeightBackend


def make_state(capacities=None, g=2.0, max_capacity=None):
    return PythonWeightBackend(capacities or {"e": 1}, g=g, max_capacity=max_capacity)


class TestRegistration:
    def test_register_starts_at_zero_weight(self):
        state = make_state()
        state.register(0, ["e"], 1.0)
        assert state.weight(0) == 0.0
        assert state.requests_on("e") == {0}
        assert state.alive_requests("e") == {0}

    def test_duplicate_registration_rejected(self):
        state = make_state()
        state.register(0, ["e"], 1.0)
        with pytest.raises(ValueError):
            state.register(0, ["e"], 1.0)

    def test_unknown_edge_rejected(self):
        state = make_state()
        with pytest.raises(ValueError):
            state.register(0, ["missing"], 1.0)

    def test_non_positive_cost_rejected(self):
        state = make_state()
        with pytest.raises(ValueError):
            state.register(0, ["e"], 0.0)

    def test_seed_weight_formula(self):
        state = PythonWeightBackend({"e": 4}, g=8.0)
        assert state.seed_weight == pytest.approx(1.0 / 32.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PythonWeightBackend({"e": -1}, g=1.0)


class TestExcessAndConstraint:
    def test_excess_below_capacity_is_negative(self):
        state = make_state({"e": 3})
        state.register(0, ["e"], 1.0)
        assert state.excess("e") == -2
        assert state.constraint_satisfied("e")

    def test_constraint_violated_when_over_capacity(self):
        state = make_state({"e": 1})
        state.register(0, ["e"], 1.0)
        state.register(1, ["e"], 1.0)
        assert state.excess("e") == 1
        assert not state.constraint_satisfied("e")


class TestArrivalProcessing:
    def test_no_augmentation_when_under_capacity(self):
        state = make_state({"e": 2})
        outcome = state.process_arrival(0, ["e"], 1.0)
        assert outcome.num_augmentations == 0
        assert state.fractional_cost() == 0.0

    def test_augmentation_restores_constraint(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        outcome = state.process_arrival(1, ["e"], 1.0)
        assert outcome.num_augmentations >= 1
        assert state.constraint_satisfied("e")
        assert state.check_invariants() == []

    def test_deltas_reported_for_increased_weights(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        outcome = state.process_arrival(1, ["e"], 1.0)
        assert set(outcome.deltas) <= {0, 1}
        assert all(delta > 0 for delta in outcome.deltas.values())

    def test_weights_monotone_nondecreasing(self):
        state = make_state({"e": 2}, g=1.0)
        history = []
        for i in range(6):
            state.process_arrival(i, ["e"], 1.0)
            history.append(state.weights())
        for earlier, later in zip(history, history[1:]):
            for rid, weight in earlier.items():
                assert later[rid] >= weight - 1e-12

    def test_dead_requests_removed_from_all_edges(self):
        state = make_state({"a": 1, "b": 1}, g=1.0)
        state.process_arrival(0, ["a", "b"], 1.0)
        # Overload both edges until request 0 dies.
        rid = 1
        while not state.is_dead(0) and rid < 20:
            state.process_arrival(rid, ["a"], 1.0)
            rid += 1
        assert state.is_dead(0)
        assert 0 not in state.alive_requests("a")
        assert 0 not in state.alive_requests("b")

    def test_fractional_cost_counts_min_weight_one(self):
        state = make_state({"e": 1}, g=1.0)
        for i in range(5):
            state.process_arrival(i, ["e"], 1.0)
        cost = state.fractional_cost()
        manual = sum(min(w, 1.0) for w in state.weights().values())
        assert cost == pytest.approx(manual)

    def test_multi_edge_request_restores_every_edge(self):
        state = make_state({"a": 1, "b": 1}, g=1.0)
        state.process_arrival(0, ["a"], 1.0)
        state.process_arrival(1, ["b"], 1.0)
        state.process_arrival(2, ["a", "b"], 1.0)
        assert state.constraint_satisfied("a")
        assert state.constraint_satisfied("b")
        assert state.check_invariants() == []


class TestCapacityReduction:
    def test_reduction_triggers_augmentation(self):
        state = make_state({"e": 2}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        state.process_arrival(1, ["e"], 1.0)
        outcome = state.process_capacity_reduction("e", triggered_by=99)
        assert state.capacity("e") == 1
        assert outcome.num_augmentations >= 1
        assert state.constraint_satisfied("e")

    def test_reduction_never_goes_negative(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_capacity_reduction("e", triggered_by=0)
        state.process_capacity_reduction("e", triggered_by=1)
        assert state.capacity("e") == 0

    def test_unknown_edge_rejected(self):
        state = make_state()
        with pytest.raises(ValueError):
            state.decrease_capacity("missing")


class TestAugmentationRecords:
    def test_history_records_trigger_and_edge(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        state.process_arrival(1, ["e"], 1.0)
        history = state.history()
        assert len(history) == state.total_augmentations
        assert all(record.edge == "e" for record in history)
        assert history[-1].triggered_by == 1
        assert history[0].excess >= 1

    def test_seeded_requests_recorded(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        state.process_arrival(1, ["e"], 1.0)
        seeded = {rid for record in state.history() for rid in record.seeded}
        assert seeded == {0, 1}

    def test_weight_growth_is_multiplicative(self):
        state = make_state({"e": 1}, g=4.0, max_capacity=1)
        state.process_arrival(0, ["e"], 2.0)
        state.process_arrival(1, ["e"], 2.0)
        # Every augmentation multiplies both (still alive) weights by exactly
        # (1 + 1/(n_e * p)) = 1.5 with n_e = 1, p = 2, starting from the seed.
        assert state.history()[0].excess == 1
        augmentations = state.total_augmentations
        assert augmentations >= 1
        expected = state.seed_weight * 1.5**augmentations
        for weight in state.weights().values():
            assert weight == pytest.approx(expected)


class TestInvariants:
    def test_invariants_hold_after_stress(self):
        state = make_state({f"e{k}": 2 for k in range(5)}, g=1.0)
        for i in range(40):
            edges = [f"e{i % 5}", f"e{(i + 1) % 5}"]
            state.process_arrival(i, edges, 1.0)
        assert state.check_invariants() == []

    def test_invariant_checker_detects_corruption(self):
        state = make_state({"e": 1}, g=1.0)
        state.process_arrival(0, ["e"], 1.0)
        state.process_arrival(1, ["e"], 1.0)
        state._weights[0] = -0.5  # corrupt on purpose
        assert any("negative" in problem for problem in state.check_invariants())
