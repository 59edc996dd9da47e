"""Tests for the Section-2 fractional admission-control algorithm."""

import pytest

from repro.core.bounds import lemma1_augmentation_bound
from repro.core.fractional import CostClass, FractionalAdmissionControl
from repro.instances.compiled import compile_sequence, intern_edges
from repro.instances.request import Request
from repro.offline import solve_admission_lp
from repro.workloads import overloaded_edge_adversary, single_edge_workload, uniform_costs


class TestConstruction:
    def test_for_instance_infers_unweighted(self, star_instance):
        algo = FractionalAdmissionControl.for_instance(star_instance)
        assert algo.unweighted
        assert algo.g == 1.0

    def test_weighted_default_g(self, weighted_instance):
        algo = FractionalAdmissionControl.for_instance(weighted_instance)
        assert algo.g == pytest.approx(2.0 * weighted_instance.num_edges * weighted_instance.max_capacity)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FractionalAdmissionControl({})
        with pytest.raises(ValueError):
            FractionalAdmissionControl({"e": 1}, alpha=-1.0)
        with pytest.raises(ValueError):
            FractionalAdmissionControl({"e": 1}, g=0.0)

    def test_thresholds_with_alpha(self):
        algo = FractionalAdmissionControl({"e": 2, "f": 2}, alpha=4.0)
        assert algo.small_threshold == pytest.approx(4.0 / (2 * 2))
        assert algo.big_threshold == pytest.approx(8.0)

    def test_thresholds_without_alpha(self):
        algo = FractionalAdmissionControl({"e": 2})
        assert algo.small_threshold is None
        assert algo.big_threshold is None


class TestNoRejectionCase:
    """The paper stresses the algorithm must pay 0 when OPT pays 0."""

    def test_zero_cost_when_no_overload(self, free_instance):
        algo = FractionalAdmissionControl.for_instance(free_instance)
        result = algo.process_sequence(free_instance.requests)
        assert result.fractional_cost == 0.0
        assert result.num_augmentations == 0
        assert all(fraction == 0.0 for fraction in result.fractions.values())

    def test_under_capacity_weighted(self):
        algo = FractionalAdmissionControl({"e": 5})
        for i in range(5):
            algo.process(Request(i, {"e"}, float(i + 1)))
        assert algo.fractional_cost() == 0.0


class TestCoveringConstraint:
    def test_constraint_holds_after_every_arrival(self, star_instance):
        algo = FractionalAdmissionControl.for_instance(star_instance)
        for request in star_instance.requests:
            algo.process(request)
            assert algo.check_invariants() == []

    def test_fractional_rejection_covers_excess(self, overload_instance):
        algo = FractionalAdmissionControl.for_instance(overload_instance)
        algo.process_sequence(overload_instance.requests)
        # The total rejected fraction on the overloaded edge must be at least
        # its excess (5 requests, capacity 2 -> at least 3).
        total = sum(algo.fractions().values())
        assert total >= overload_instance.max_excess() - 1e-9


class TestCostClasses:
    def test_small_requests_rejected_immediately(self):
        algo = FractionalAdmissionControl({"e": 2, "f": 2}, alpha=4.0)
        decision = algo.process(Request(0, {"e"}, 0.5))  # below alpha/(mc) = 1.0
        assert decision.cost_class == CostClass.SMALL
        assert decision.fraction_rejected == 1.0
        assert algo.fractional_cost() == pytest.approx(0.5)

    def test_big_requests_accepted_and_capacity_reserved(self):
        algo = FractionalAdmissionControl({"e": 2, "f": 2}, alpha=1.0)
        decision = algo.process(Request(0, {"e"}, 10.0))  # above 2 alpha
        assert decision.cost_class == CostClass.BIG
        assert decision.fraction_rejected == 0.0
        assert algo.weight_state.capacity("e") == 1
        assert algo.fractional_cost() == 0.0

    def test_normal_requests_enter_weight_mechanism(self):
        algo = FractionalAdmissionControl({"e": 1, "f": 1}, alpha=2.0)
        decision = algo.process(Request(0, {"e"}, 2.0))
        assert decision.cost_class == CostClass.NORMAL

    def test_forced_tag_always_accepted(self):
        algo = FractionalAdmissionControl({"e": 1}, force_accept_tags={"element"})
        decision = algo.process(Request(0, {"e"}, 1.0, tag="element"))
        assert decision.cost_class == CostClass.FORCED
        assert algo.weight_state.capacity("e") == 0

    def test_unweighted_rejects_non_unit_cost(self):
        algo = FractionalAdmissionControl({"e": 1}, unweighted=True)
        with pytest.raises(ValueError):
            algo.process(Request(0, {"e"}, 2.0))

    def test_unweighted_allows_forced_non_unit_cost(self):
        algo = FractionalAdmissionControl({"e": 1}, unweighted=True, force_accept_tags={"x"})
        decision = algo.process(Request(0, {"e"}, 5.0, tag="x"))
        assert decision.cost_class == CostClass.FORCED

    def test_duplicate_request_id_rejected(self, overload_instance):
        algo = FractionalAdmissionControl.for_instance(overload_instance)
        request = overload_instance.requests[0]
        algo.process(request)
        with pytest.raises(ValueError):
            algo.process(request)

    def test_unknown_edge_rejected(self):
        algo = FractionalAdmissionControl({"e": 1})
        with pytest.raises(ValueError):
            algo.process(Request(0, {"zzz"}, 1.0))

    def test_run_result_counts_classes(self):
        algo = FractionalAdmissionControl({"e": 2, "f": 2}, alpha=2.0)
        algo.process(Request(0, {"e"}, 0.1))   # small
        algo.process(Request(1, {"e"}, 10.0))  # big
        algo.process(Request(2, {"e"}, 2.0))   # normal
        result = algo.run_result()
        assert result.num_small == 1
        assert result.num_big == 1
        assert result.num_normal == 1
        assert result.num_requests == 3


class TestCompetitiveness:
    """Theorem 2: fractional cost <= O(log(mc)) * fractional OPT."""

    @pytest.mark.parametrize("m,c", [(8, 2), (16, 4), (32, 4)])
    def test_unweighted_within_log_bound(self, m, c):
        instance = overloaded_edge_adversary(m, c, num_hot_edges=2, random_state=m + c)
        opt = solve_admission_lp(instance)
        algo = FractionalAdmissionControl.for_instance(instance)
        algo.process_sequence(instance.requests)
        # Generous constant: the proof gives (3 + 2/c) * log2(2gc).
        import math

        bound = (3 + 2 / c) * math.log2(2 * algo.g * c) * max(opt.cost, 1e-9) + 4
        assert algo.fractional_cost() <= bound

    @pytest.mark.parametrize("m,c", [(8, 2), (16, 4)])
    def test_weighted_with_oracle_alpha_within_bound(self, m, c):
        instance = single_edge_workload(
            m, 4 * m, capacity=c, concentration=1.3,
            cost_sampler=lambda n, r: uniform_costs(n, 1.0, 5.0, random_state=r),
            random_state=m * 7 + c,
        )
        opt = solve_admission_lp(instance)
        alpha = max(opt.cost, 1e-9)
        algo = FractionalAdmissionControl.for_instance(instance, alpha=alpha)
        algo.process_sequence(instance.requests)
        import math

        bound = (3 + 2 / c) * math.log2(2 * algo.g * c) * alpha + 6 * alpha + 4
        assert algo.fractional_cost() <= bound

    @pytest.mark.parametrize("m,c", [(8, 2), (16, 4), (32, 8)])
    def test_lemma1_augmentation_bound(self, m, c):
        instance = overloaded_edge_adversary(m, c, num_hot_edges=2, random_state=m * 3 + c)
        opt = solve_admission_lp(instance)
        algo = FractionalAdmissionControl.for_instance(instance)
        algo.process_sequence(instance.requests)
        bound = lemma1_augmentation_bound(max(opt.cost, 1e-9), algo.g, algo.c)
        assert algo.num_augmentations <= bound + 1e-9


class TestUpdateAlpha:
    def test_update_changes_thresholds_for_future_requests(self):
        algo = FractionalAdmissionControl({"e": 2, "f": 2}, alpha=1.0)
        assert algo.big_threshold == pytest.approx(2.0)
        algo.update_alpha(10.0)
        assert algo.big_threshold == pytest.approx(20.0)
        assert algo.small_threshold == pytest.approx(10.0 / 4.0)

    def test_update_alpha_validates(self):
        algo = FractionalAdmissionControl({"e": 1}, alpha=1.0)
        with pytest.raises(ValueError):
            algo.update_alpha(0.0)


class TestRefusedCompiledArrival:
    """A compiled arrival the algorithm refuses leaves no trace in its state."""

    CAPACITIES = {"a": 1, "b": 1}

    @pytest.mark.parametrize("edges", [{"a", "c"}, {"a"}], ids=["uses-c", "interning-has-c"])
    def test_foreign_interning_raises_before_any_state_changes(self, edges):
        algo = FractionalAdmissionControl(self.CAPACITIES)
        foreign = compile_sequence(
            [Request(0, edges, 2.0)], intern_edges({**self.CAPACITIES, "c": 1})
        )
        with pytest.raises(ValueError, match="edge 'c' unknown to this algorithm"):
            algo.process_indexed(foreign, 0)
        assert not algo.was_processed(0)
        assert algo.fractional_cost() == 0.0
        fresh = FractionalAdmissionControl(self.CAPACITIES)
        assert algo.export_state() == fresh.export_state()
        # The next valid arrivals (they overload edge a) run as on a fresh algorithm.
        valid = compile_sequence(
            [Request(0, {"a", "b"}, 2.0), Request(1, {"a"}, 3.0)], self.CAPACITIES
        )
        for i in range(valid.num_requests):
            assert algo.process_indexed(valid, i) == fresh.process_indexed(valid, i)
        assert algo.export_state() == fresh.export_state()
        assert algo.fractional_cost() == fresh.fractional_cost() > 0.0


class TestRecordDefault:
    """Only the randomized rounding reads outcomes, so nothing else records them."""

    def test_default_algorithm_does_not_record(self):
        algo = FractionalAdmissionControl({"e": 1})
        assert algo.record is False
        for i in range(4):
            algo.process(Request(i, {"e"}, 1.0))
        assert algo.num_augmentations > 0
        assert all(d.outcome is None for d in algo.decisions())

    def test_engine_config_and_session_do_not_record(self):
        from repro.engine.config import EngineConfig
        from repro.engine.streaming import StreamingSession

        assert FractionalAdmissionControl({"e": 1}, backend=EngineConfig("numpy")).record is False
        assert StreamingSession({"e": 1}, "fractional").algorithm.record is False
        assert StreamingSession({"e": 1}, "doubling-fractional").algorithm.inner.record is False
