"""End-to-end integration tests tying workloads, algorithms, offline solvers and analysis together."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    BicriteriaOnlineSetCover,
    DoublingAdmissionControl,
    OnlineSetCoverViaAdmissionControl,
    RandomizedAdmissionControl,
    run_admission,
    run_setcover,
)
from repro.analysis import (
    check_admission_result,
    evaluate_admission_run,
    evaluate_setcover_run,
)
from repro.api import Runner, RunSpec
from repro.baselines import KeepExpensive, RejectWhenFull
from repro.network.topologies import grid_graph, line_graph
from repro.offline import solve_admission_ilp, solve_set_multicover_ilp
from repro.utils.mathx import log2_guarded
from repro.workloads import (
    hotspot_workload,
    line_interval_workload,
    overloaded_edge_adversary,
    random_path_workload,
    random_setcover_instance,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestAdmissionPipeline:
    def test_grid_hotspot_full_pipeline(self):
        graph = grid_graph(3, 3, capacity=2)
        instance = hotspot_workload(graph, 60, num_hotspots=2, hotspot_fraction=0.7, random_state=1)
        record = evaluate_admission_run(
            instance,
            run_admission(DoublingAdmissionControl.for_instance(instance, random_state=1), instance),
        )
        assert record.feasible
        assert record.ratio < record.bound.value * 4  # very generous polylog envelope

    def test_line_interval_pipeline(self):
        instance = line_interval_workload(12, 50, capacity=2, random_state=2)
        opt = solve_admission_ilp(instance)
        algo = RandomizedAdmissionControl.for_instance(instance, random_state=2)
        result = run_admission(algo, instance)
        assert check_admission_result(instance, result).ok
        if opt.cost > 0:
            assert result.rejection_cost / opt.cost <= 8 * log2_guarded(instance.num_edges) * log2_guarded(
                instance.max_capacity
            )

    def test_paper_beats_nonpreemptive_on_average(self):
        """On congested random paths, the paper's algorithm should not be worse
        than the non-preemptive baseline by more than a small factor, and it
        should beat it on the weighted adversarial trap (tested elsewhere)."""
        graph = line_graph(10, capacity=1)
        instance = random_path_workload(graph, 40, random_state=3)
        paper = run_admission(DoublingAdmissionControl.for_instance(instance, random_state=3), instance)
        naive = run_admission(RejectWhenFull.for_instance(instance), instance)
        assert paper.rejection_cost <= 3 * max(naive.rejection_cost, 1.0) + 3

    def test_trials_runner_end_to_end(self):
        results = Runner().run(
            RunSpec(
                factory=lambda rng: overloaded_edge_adversary(10, 2, random_state=rng),
                algorithm=lambda inst, rng: KeepExpensive.for_instance(inst),
                trials=3,
                seed=4,
                label="integration",
                offline="ilp",
                ilp_time_limit=30.0,
            )
        )
        assert len(results) == 3
        assert results.all_feasible()


class TestSetCoverPipeline:
    def test_reduction_and_bicriteria_on_same_instance(self):
        instance = random_setcover_instance(30, 14, 55, random_state=5)
        opt = solve_set_multicover_ilp(instance.system, instance.demands())

        reduction = OnlineSetCoverViaAdmissionControl(instance.system, random_state=5)
        red_result = run_setcover(reduction, instance)
        red_record = evaluate_setcover_run(instance, red_result)
        assert red_record.feasible
        assert red_result.cost >= opt.cost - 1e-9

        bicriteria = BicriteriaOnlineSetCover(instance.system, eps=0.2)
        bic_result = run_setcover(bicriteria, instance)
        bic_record = evaluate_setcover_run(instance, bic_result, bicriteria_bound=True)
        assert bic_record.feasible  # bicriteria-satisfied counts as feasible

    def test_online_cost_at_least_offline(self):
        instance = random_setcover_instance(20, 10, 35, random_state=6)
        opt = solve_set_multicover_ilp(instance.system, instance.demands())
        solver = OnlineSetCoverViaAdmissionControl(instance.system, random_state=6)
        result = run_setcover(solver, instance)
        assert result.cost >= opt.cost - 1e-9


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "adversarial_showdown.py",
        "scenario_sweep.py",
        "streaming_service.py",
        "cdn_replica_placement.py",
        "isp_admission_control.py",
    ],
)
class TestExamplesRun:
    def test_example_executes(self, script):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip()
