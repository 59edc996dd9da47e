"""Tests for the Section-3 randomized admission-control algorithm."""

import numpy as np
import pytest

from repro.core.protocols import run_admission
from repro.core.randomized import RandomizedAdmissionControl
from repro.instances.request import DecisionKind, Request
from repro.offline import solve_admission_ilp
from repro.utils.mathx import log2_guarded
from repro.workloads import (
    cheap_then_expensive_adversary,
    overloaded_edge_adversary,
    repeated_overload_adversary,
)
from repro.analysis.invariants import check_admission_result


class TestConfiguration:
    def test_weighted_constants(self):
        algo = RandomizedAdmissionControl({f"e{k}": 4 for k in range(8)}, weighted=True)
        expected_log = log2_guarded(8 * 4)
        assert algo.weight_threshold == pytest.approx(1.0 / (12 * expected_log))
        assert algo.prob_factor == pytest.approx(12 * expected_log)

    def test_unweighted_constants(self):
        algo = RandomizedAdmissionControl({f"e{k}": 4 for k in range(8)}, weighted=False)
        expected_log = log2_guarded(8)
        assert algo.weight_threshold == pytest.approx(1.0 / (4 * expected_log))
        assert algo.prob_factor == pytest.approx(4 * expected_log)

    def test_custom_rounding_constant(self):
        algo = RandomizedAdmissionControl({"e": 1}, weighted=False, rounding_constant=2.0)
        assert algo.prob_factor == pytest.approx(2.0 * log2_guarded(1))

    def test_invalid_rounding_constant(self):
        with pytest.raises(ValueError):
            RandomizedAdmissionControl({"e": 1}, rounding_constant=0.0)

    def test_for_instance_infers_weighted(self, weighted_instance, star_instance):
        assert RandomizedAdmissionControl.for_instance(weighted_instance).weighted
        assert not RandomizedAdmissionControl.for_instance(star_instance).weighted


class TestFeasibility:
    """The accepted set must respect every capacity at all times."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_always_feasible_on_adversarial_workload(self, seed):
        instance = overloaded_edge_adversary(12, 2, num_hot_edges=3, random_state=seed)
        algo = RandomizedAdmissionControl.for_instance(instance, random_state=seed)
        for request in instance.requests:
            algo.process(request)
            assert algo.is_feasible()
        report = check_admission_result(instance, algo.result())
        assert report.ok, str(report)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasible_on_weighted_workload(self, seed):
        instance = cheap_then_expensive_adversary(6, 2, expensive_cost=20.0)
        algo = RandomizedAdmissionControl.for_instance(instance, random_state=seed)
        result = run_admission(algo, instance)
        assert result.feasible
        assert check_admission_result(instance, result).ok

    def test_no_rejections_when_no_congestion(self, free_instance):
        algo = RandomizedAdmissionControl.for_instance(free_instance, random_state=0)
        result = run_admission(algo, free_instance)
        assert result.rejection_cost == 0.0
        assert result.num_rejections == 0

    def test_decision_partition_complete(self, adversarial_instance):
        algo = RandomizedAdmissionControl.for_instance(adversarial_instance, random_state=5)
        result = run_admission(algo, adversarial_instance)
        decided = result.accepted_ids | result.rejected_ids | result.preempted_ids
        assert decided == frozenset(adversarial_instance.requests.ids())


class TestRejectionAccounting:
    def test_rejection_cost_matches_decisions(self, adversarial_instance):
        algo = RandomizedAdmissionControl.for_instance(adversarial_instance, random_state=7)
        result = run_admission(algo, adversarial_instance)
        expected = adversarial_instance.rejection_cost(result.rejected_ids | result.preempted_ids)
        assert result.rejection_cost == pytest.approx(expected)

    def test_lower_bound_respected(self, overload_instance):
        # Any algorithm must reject at least the excess of the overloaded edge.
        algo = RandomizedAdmissionControl.for_instance(overload_instance, random_state=0)
        result = run_admission(algo, overload_instance)
        assert result.num_rejections >= overload_instance.lower_bound_rejections()

    def test_extra_metrics_present(self, adversarial_instance):
        algo = RandomizedAdmissionControl.for_instance(adversarial_instance, random_state=1)
        result = run_admission(algo, adversarial_instance)
        for key in ("fractional_cost", "num_augmentations", "threshold_rejections", "coin_rejections"):
            assert key in result.extra

    def test_duplicate_request_rejected(self, overload_instance):
        algo = RandomizedAdmissionControl.for_instance(overload_instance)
        request = overload_instance.requests[0]
        algo.process(request)
        with pytest.raises(ValueError):
            algo.process(request)


class TestDeterminismGivenSeed:
    def test_same_seed_same_decisions(self, adversarial_instance):
        results = []
        for _ in range(2):
            algo = RandomizedAdmissionControl.for_instance(adversarial_instance, random_state=42)
            results.append(run_admission(algo, adversarial_instance))
        assert results[0].rejected_ids == results[1].rejected_ids
        assert results[0].preempted_ids == results[1].preempted_ids

    def test_random_stream_is_consumed_on_congested_input(self):
        instance = overloaded_edge_adversary(16, 2, num_hot_edges=3, random_state=0)
        algo = RandomizedAdmissionControl.for_instance(instance, random_state=11)
        state_before = repr(algo.rng.bit_generator.state)
        run_admission(algo, instance)
        # Step 3's coin flips must actually draw from the generator.
        assert repr(algo.rng.bit_generator.state) != state_before

    def test_coin_rejections_fire_when_every_coin_says_reject(self):
        # Step 3 (probabilistic rounding of the weight increases) is exercised
        # deterministically by forcing every coin flip to land below the
        # rejection probability: any accepted request whose weight increased
        # must then be preempted through the coin path.
        class AlwaysReject:
            def random(self):
                return 0.0

        # Capacity is large relative to the threshold 1/(4 log2 m), so the
        # seeded weights stay below the step-2 threshold and only the step-3
        # coins can preempt.
        capacities = {f"e{k}": 64 for k in range(4)}
        algo = RandomizedAdmissionControl(capacities, weighted=False, random_state=0)
        algo.rng = AlwaysReject()
        for i in range(65):  # the 65th request pushes edge e0 one unit over capacity
            algo.process(Request(i, {"e0"}, 1.0))
        assert algo.num_coin_rejections > 0
        assert algo.is_feasible()


class TestCompetitiveness:
    """Theorem 3/4 shape: ratio within a generous polylog bound, on average."""

    def test_unweighted_mean_ratio_within_bound(self):
        ratios = []
        for seed in range(5):
            instance = overloaded_edge_adversary(24, 3, num_hot_edges=3, random_state=seed)
            opt = solve_admission_ilp(instance)
            algo = RandomizedAdmissionControl.for_instance(instance, weighted=False, random_state=seed)
            result = run_admission(algo, instance)
            ratios.append(result.rejection_cost / max(opt.cost, 1.0))
        mean_ratio = float(np.mean(ratios))
        bound = 16 * log2_guarded(24) * log2_guarded(3)
        assert mean_ratio <= bound

    def test_weighted_with_oracle_alpha_protects_expensive(self):
        instance = cheap_then_expensive_adversary(8, 2, expensive_cost=50.0)
        opt = solve_admission_ilp(instance)
        algo = RandomizedAdmissionControl.for_instance(
            instance, weighted=True, alpha=opt.cost, random_state=3
        )
        result = run_admission(algo, instance)
        # With the R_big preprocessing the expensive requests are never rejected.
        expensive_ids = {r.request_id for r in instance.requests if r.cost > 2 * opt.cost}
        assert not (expensive_ids & result.all_rejected_ids())

    def test_repeated_overload_stays_reasonable(self):
        instance = repeated_overload_adversary(capacity=3, num_waves=5, random_state=2)
        opt = solve_admission_ilp(instance)
        algo = RandomizedAdmissionControl.for_instance(instance, weighted=False, random_state=2)
        result = run_admission(algo, instance)
        assert result.rejection_cost <= 4 * opt.cost + 4


class TestForcedAcceptance:
    def test_forced_requests_always_accepted(self):
        capacities = {"e": 1}
        algo = RandomizedAdmissionControl(
            capacities, weighted=False, force_accept_tags={"element"}, random_state=0
        )
        algo.process(Request(0, {"e"}, 1.0))
        decision = algo.process(Request(1, {"e"}, 1.0, tag="element"))
        assert decision.kind == DecisionKind.ACCEPT
        assert 1 in algo.accepted_ids()
        # Feasibility restored by preempting the normal request.
        assert algo.is_feasible()
        assert 0 in algo.preempted_ids() | algo.rejected_ids()

    def test_forced_requests_never_preempted_by_rounding(self):
        # One normal request plus two forced requests on a capacity-2 edge:
        # feasibility is restored by evicting the normal request, never a
        # forced one.
        capacities = {"e": 2}
        algo = RandomizedAdmissionControl(
            capacities, weighted=False, force_accept_tags={"element"}, random_state=0
        )
        algo.process(Request(0, {"e"}, 1.0))
        algo.process(Request(1, {"e"}, 1.0, tag="element"))
        algo.process(Request(2, {"e"}, 1.0, tag="element"))
        assert 1 in algo.accepted_ids()
        assert 2 in algo.accepted_ids()
        assert 0 not in algo.accepted_ids()
        assert algo.is_feasible()


class TestOverloadGuard:
    def test_guard_triggers_on_massively_overloaded_edge(self):
        # m=1, c=1 -> guard limit 4mc^2 = 4 requests on one edge.
        algo = RandomizedAdmissionControl({"e": 1}, weighted=False, overload_guard=True, random_state=0)
        for i in range(6):
            algo.process(Request(i, {"e"}, 1.0))
        assert algo.is_feasible()
        # Requests arriving after the guard fires are rejected outright.
        assert len(algo.rejected_ids() | algo.preempted_ids()) >= 3

    def test_guard_disabled_by_default(self):
        algo = RandomizedAdmissionControl({"e": 1}, weighted=False, random_state=0)
        assert not algo.overload_guard


def _forced_and_big_instance():
    """A congested instance whose arrivals fall in every cost class but SMALL.

    With ``alpha=2`` the cost-5 arrivals are BIG; the ``vip``-tagged ones are
    FORCED under ``force_accept_tags={"vip"}``; the rest are NORMAL.
    """
    from repro.instances.admission import AdmissionInstance

    paths = [{"a"}, {"a", "b"}, {"b"}, {"b", "c"}, {"c"}, {"a", "c"}]
    requests = [
        Request(i, paths[i % 6], 1.0 + (7 * i) % 5, tag="vip" if i % 5 == 3 else None)
        for i in range(30)
    ]
    return AdmissionInstance({"a": 1, "b": 2, "c": 1}, requests)


class TestOutcomeLifetime:
    """The shadow records each arrival's outcome for the rounding, which drops it once read."""

    def test_shadow_records(self):
        algo = RandomizedAdmissionControl({"e": 1}, random_state=0)
        assert algo.shadow.record is True

    @pytest.mark.parametrize("via", ["process", "process_indexed"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("algorithm", ["randomized", "doubling"])
    def test_every_outcome_is_dropped_once_rounded(self, algorithm, backend, via):
        from repro.core.doubling import DoublingAdmissionControl
        from repro.core.fractional import CostClass
        from repro.instances.compiled import compile_instance

        instance = _forced_and_big_instance()
        common = dict(force_accept_tags={"vip"}, random_state=3, backend=backend)
        if algorithm == "randomized":
            algo = RandomizedAdmissionControl(instance.capacities, alpha=2.0, **common)
            shadow = algo.shadow
        else:
            algo = DoublingAdmissionControl(instance.capacities, **common)
            shadow = algo.inner.shadow
        if via == "process":
            for request in instance.requests:
                algo.process(request)
        else:
            compiled = compile_instance(instance)
            for i in range(compiled.num_requests):
                algo.process_indexed(compiled, i)

        decisions = shadow.decisions()
        assert len(decisions) == instance.num_requests
        classes = {d.cost_class for d in decisions}
        assert {CostClass.FORCED, CostClass.NORMAL} <= classes
        if algorithm == "randomized":
            assert CostClass.BIG in classes
        assert shadow.num_augmentations > 0
        assert all(d.outcome is None for d in decisions)
