"""Tests for the guess-and-double wrappers (Section 2 preprocessing)."""

import pytest

from repro.core.doubling import (
    AlphaSchedule,
    DoublingAdmissionControl,
    DoublingFractionalAdmissionControl,
)
from repro.core.protocols import run_admission
from repro.core.randomized import RandomizedAdmissionControl
from repro.instances.compiled import compile_sequence, intern_edges
from repro.instances.request import Request
from repro.offline import solve_admission_ilp
from repro.workloads import cheap_then_expensive_adversary, single_edge_workload, pareto_costs
from repro.analysis.invariants import check_admission_result


class TestAlphaSchedule:
    def test_no_guess_before_overload(self):
        schedule = AlphaSchedule(m=2, c=1)
        capacities = {"a": 1, "b": 1}
        assert not schedule.observe_request(Request(0, {"a"}, 3.0), capacities)
        assert schedule.alpha is None
        assert schedule.cost_limit() == float("inf")

    def test_first_guess_is_cheapest_on_overloaded_edge(self):
        schedule = AlphaSchedule(m=2, c=1)
        capacities = {"a": 1, "b": 1}
        schedule.observe_request(Request(0, {"a"}, 3.0), capacities)
        initialised = schedule.observe_request(Request(1, {"a"}, 2.0), capacities)
        assert initialised
        assert schedule.alpha == pytest.approx(2.0)
        assert schedule.num_phases == 1

    def test_maybe_double_grows_geometrically(self):
        schedule = AlphaSchedule(m=4, c=2, threshold_factor=1.0)
        schedule.alpha = 1.0
        schedule.phase_alphas.append(1.0)
        limit = schedule.cost_limit()
        assert schedule.maybe_double(limit * 3.5)
        assert schedule.alpha >= 4.0
        assert schedule.num_phases >= 3

    def test_maybe_double_noop_below_limit(self):
        schedule = AlphaSchedule(m=4, c=2)
        schedule.alpha = 1.0
        assert not schedule.maybe_double(0.1)

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_threshold_factor_must_be_positive(self, factor):
        # -1 used to make maybe_double loop forever, 0 drove alpha to inf.
        with pytest.raises(ValueError, match="threshold_factor"):
            AlphaSchedule(m=2, c=1, threshold_factor=factor)
        for wrapper in (DoublingAdmissionControl, DoublingFractionalAdmissionControl):
            with pytest.raises(ValueError, match="threshold_factor"):
                wrapper({"a": 1, "b": 1}, threshold_factor=factor)


class TestDoublingFractional:
    def test_no_cost_without_overload(self, free_instance):
        algo = DoublingFractionalAdmissionControl.for_instance(free_instance)
        result = algo.process_sequence(free_instance.requests)
        assert result.fractional_cost == 0.0
        assert algo.alpha is None

    def test_alpha_initialised_on_first_overload(self, overload_instance):
        algo = DoublingFractionalAdmissionControl.for_instance(overload_instance)
        algo.process_sequence(overload_instance.requests)
        assert algo.alpha is not None
        assert algo.alpha >= 1.0

    def test_invariants_hold(self, adversarial_instance):
        algo = DoublingFractionalAdmissionControl.for_instance(adversarial_instance)
        algo.process_sequence(adversarial_instance.requests)
        assert algo.check_invariants() == []

    def test_run_result_reflects_final_alpha(self, overload_instance):
        algo = DoublingFractionalAdmissionControl.for_instance(overload_instance)
        result = algo.process_sequence(overload_instance.requests)
        assert result.alpha == algo.alpha

    def test_fractions_exposed(self, overload_instance):
        algo = DoublingFractionalAdmissionControl.for_instance(overload_instance)
        algo.process_sequence(overload_instance.requests)
        fractions = algo.fractions()
        assert set(fractions) == set(overload_instance.requests.ids())
        assert all(0.0 <= f <= 1.0 for f in fractions.values())


class TestDoublingRandomized:
    def test_feasible_and_complete(self, adversarial_instance):
        algo = DoublingAdmissionControl.for_instance(adversarial_instance, random_state=0)
        result = run_admission(algo, adversarial_instance)
        assert result.feasible
        assert check_admission_result(adversarial_instance, result).ok
        assert result.extra["num_phases"] >= 1

    def test_result_uses_wrapper_name(self, adversarial_instance):
        algo = DoublingAdmissionControl.for_instance(adversarial_instance, random_state=0, name="wrapped")
        result = run_admission(algo, adversarial_instance)
        assert result.algorithm == "wrapped"

    def test_delegation_of_state_queries(self, star_instance):
        algo = DoublingAdmissionControl.for_instance(star_instance, random_state=0)
        run_admission(algo, star_instance)
        # Attribute delegation to the inner randomized algorithm.
        assert isinstance(algo.rejection_cost(), float)
        assert algo.is_feasible()

    def test_protects_expensive_requests_on_weighted_trap(self):
        instance = cheap_then_expensive_adversary(8, 2, expensive_cost=50.0)
        opt = solve_admission_ilp(instance)
        algo = DoublingAdmissionControl.for_instance(instance, random_state=1)
        result = run_admission(algo, instance)
        # Doubling finds alpha ~ OPT and then R_big protects the expensive requests:
        # the final cost should be within a small factor of OPT, far below the
        # 50x a non-preemptive algorithm pays.
        assert result.rejection_cost <= 6 * opt.cost

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_tailed_costs_stay_bounded(self, seed):
        instance = single_edge_workload(
            16, 64, capacity=2, concentration=1.3,
            cost_sampler=lambda n, r: pareto_costs(n, shape=1.3, random_state=r),
            random_state=seed,
        )
        opt = solve_admission_ilp(instance)
        algo = DoublingAdmissionControl.for_instance(instance, random_state=seed)
        result = run_admission(algo, instance)
        assert result.feasible
        if opt.cost > 0:
            assert result.rejection_cost / opt.cost <= 80.0  # generous sanity bound

    def test_alpha_phases_monotone(self, adversarial_instance):
        algo = DoublingAdmissionControl.for_instance(adversarial_instance, random_state=0)
        result = run_admission(algo, adversarial_instance)
        phases = result.extra["alpha_phases"]
        assert all(b >= a for a, b in zip(phases, phases[1:]))


class TestRefusedArrivalKeepsTheGuess:
    """An arrival the wrapped algorithm refuses never reaches the schedule.

    Each refused arrival raises the inner algorithm's ``ValueError`` before
    the schedule counts it, so the guess, the per-edge counts and the rest of
    the run are those of a run that never saw it.
    """

    CAPACITIES = {"a": 1, "b": 1}
    FOREIGN = {"a": 1, "b": 1, "c": 1}
    PATHS = [{"a"}, {"a", "b"}, {"b"}, {"a"}, {"a", "b"}, {"b"}]
    WEIGHTED_COSTS = [2.0, 1.0, 3.0, 0.5, 4.0, 1.5]

    def _wrapper(self, wrapper, unit):
        if wrapper is DoublingAdmissionControl:
            return wrapper(self.CAPACITIES, weighted=not unit, random_state=11)
        return wrapper(self.CAPACITIES, unweighted=unit)

    def _step(self, algo, request, mode):
        if mode == "process":
            return algo.process(request)
        capacities = self.FOREIGN if "c" in request.edges else self.CAPACITIES
        return algo.process_indexed(compile_sequence([request], capacities), 0)

    @pytest.mark.parametrize("mode", ["process", "process_indexed"])
    @pytest.mark.parametrize("wrapper", [DoublingFractionalAdmissionControl, DoublingAdmissionControl])
    @pytest.mark.parametrize(
        "bad, unit, message",
        [
            (Request(0, {"a"}, 1.0), False, "request id 0 was already processed"),
            (Request(1, {"a", "c"}, 1.0), False, "unknown edges"),
            (Request(1, {"a"}, 2.0), True, "unweighted mode requires unit costs"),
        ],
        ids=["duplicate-id", "unknown-edge", "non-unit-cost"],
    )
    def test_refused_arrival_leaves_schedule_and_run_unchanged(
        self, wrapper, mode, bad, unit, message
    ):
        costs = [1.0] * len(self.PATHS) if unit else self.WEIGHTED_COSTS
        stream = [Request(i, path, cost) for i, (path, cost) in enumerate(zip(self.PATHS, costs))]
        algo = self._wrapper(wrapper, unit)
        reference = self._wrapper(wrapper, unit)
        self._step(algo, stream[0], mode)
        self._step(reference, stream[0], mode)
        schedule = algo.schedule.export_state()
        with pytest.raises(ValueError, match=message):
            self._step(algo, bad, mode)
        assert algo.schedule.export_state() == schedule
        assert algo.alpha is None
        assert algo.was_processed(0) and not algo.was_processed(1)
        for request in stream[1:]:
            assert self._step(algo, request, mode) == self._step(reference, request, mode)
        assert reference.alpha is not None
        assert algo.export_state() == reference.export_state()


class TestForeignInterningLeavesNoTrace:
    """A compiled arrival from an interning with an unknown edge leaves no trace.

    The arrival itself avoids the unknown edge ``c``, so only the interning
    check refuses it; it must do so before the randomized layer records the
    arrival and before the doubling schedule counts it.
    """

    CAPACITIES = {"a": 1, "b": 1}
    MAKERS = {
        "randomized": lambda caps: RandomizedAdmissionControl(caps, random_state=5),
        "doubling-fractional": lambda caps: DoublingFractionalAdmissionControl(caps),
        "doubling": lambda caps: DoublingAdmissionControl(caps, random_state=5),
    }

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_refused_before_anything_is_recorded(self, kind):
        make = self.MAKERS[kind]
        algo, fresh = make(self.CAPACITIES), make(self.CAPACITIES)
        state = algo.export_state()
        foreign = compile_sequence(
            [Request(0, {"a"}, 2.0)], intern_edges({**self.CAPACITIES, "c": 1})
        )
        with pytest.raises(ValueError, match="edge 'c' unknown to this algorithm"):
            algo.process_indexed(foreign, 0)
        assert not algo.was_processed(0)
        assert algo.export_state() == state
        # The same id, compiled against the algorithm's own edges, is accepted
        # and the run continues (overloading edge a) as on a fresh algorithm.
        valid = compile_sequence(
            [Request(0, {"a"}, 2.0), Request(1, {"a", "b"}, 3.0), Request(2, {"a"}, 1.0)],
            self.CAPACITIES,
        )
        for i in range(valid.num_requests):
            assert algo.process_indexed(valid, i) == fresh.process_indexed(valid, i)
        assert algo.export_state() == fresh.export_state()
