"""Tests for the analysis layer: stats, competitive records, trials, reports, plots."""

import math

import pytest

from repro.analysis import (
    ascii_line_plot,
    ascii_series_table,
    check_admission_result,
    evaluate_admission_algorithm,
    evaluate_admission_run,
    evaluate_setcover_algorithm,
    evaluate_setcover_run,
    format_kv,
    format_records,
    format_table,
    summarize,
)
from repro.api import Runner, RunSpec
from repro.baselines import KeepExpensive, CheapestSetOnline
from repro.core.protocols import AdmissionResult, run_admission, run_setcover
from repro.core.randomized import RandomizedAdmissionControl
from repro.engine.runtime import make_setcover_algorithm
from repro.workloads import overloaded_edge_adversary, random_setcover_instance


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)
        assert stats.ci95_low <= stats.mean <= stats.ci95_high

    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.std == 0.0
        assert stats.ci95_low == stats.ci95_high == 3.0

    def test_infinite_values_dropped(self):
        stats = summarize([1.0, math.inf, 2.0])
        assert stats.count == 2

    def test_empty_sample(self):
        stats = summarize([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_str_contains_mean(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestEvaluate:
    def test_admission_record_fields(self, star_instance):
        algo = RandomizedAdmissionControl.for_instance(star_instance, random_state=0)
        result = run_admission(algo, star_instance)
        record = evaluate_admission_run(star_instance, result)
        assert record.offline_cost == pytest.approx(4.0)
        assert record.ratio >= 1.0
        assert record.normalized_ratio == pytest.approx(record.ratio / record.bound.value)
        assert record.feasible
        assert "ratio" in record.row()

    def test_admission_lp_comparator(self, star_instance):
        algo = KeepExpensive.for_instance(star_instance)
        record = evaluate_admission_run(star_instance, run_admission(algo, star_instance), offline="lp")
        assert record.offline_kind.startswith("lp")

    def test_unknown_comparator_rejected(self, star_instance):
        algo = KeepExpensive.for_instance(star_instance)
        result = run_admission(algo, star_instance)
        with pytest.raises(ValueError):
            evaluate_admission_run(star_instance, result, offline="magic")

    def test_evaluate_admission_algorithm_helper(self, star_instance):
        record = evaluate_admission_algorithm(
            star_instance, lambda inst: KeepExpensive.for_instance(inst)
        )
        assert record.algorithm == "KeepExpensive"

    def test_setcover_record(self, small_cover_instance):
        record = evaluate_setcover_algorithm(
            small_cover_instance, lambda inst: CheapestSetOnline(inst.system)
        )
        assert record.offline_cost == pytest.approx(2.0)
        assert record.ratio >= 1.0
        assert record.feasible

    def test_setcover_lp_comparator(self, small_cover_instance):
        algo = CheapestSetOnline(small_cover_instance.system)
        result = run_setcover(algo, small_cover_instance)
        record = evaluate_setcover_run(small_cover_instance, result, offline="lp")
        assert record.offline_kind.startswith("lp")
        with pytest.raises(ValueError):
            evaluate_setcover_run(small_cover_instance, result, offline="magic")

    def test_zero_opt_zero_online_ratio_is_one(self, free_instance):
        algo = KeepExpensive.for_instance(free_instance)
        record = evaluate_admission_run(free_instance, run_admission(algo, free_instance))
        assert record.ratio == 1.0


class TestTrials:
    def test_admission_trials_aggregate(self):
        results = Runner().run(
            RunSpec(
                factory=lambda rng: overloaded_edge_adversary(8, 2, random_state=rng),
                algorithm=lambda inst, rng: RandomizedAdmissionControl.for_instance(
                    inst, random_state=rng
                ),
                trials=3,
                seed=0,
                label="test",
                offline="ilp",
                ilp_time_limit=30.0,
            )
        )
        assert len(results) == 3
        assert results.all_feasible()
        assert results.ratio_stats().count == 3
        assert results.ratio_stats().maximum >= 1.0
        (row,) = results.aggregate(by=("label",))
        assert row["label"] == "test"
        assert row["trials"] == 3

    def test_admission_trials_reproducible(self):
        def run_once():
            return Runner().run(
                RunSpec(
                    factory=lambda rng: overloaded_edge_adversary(8, 2, random_state=rng),
                    algorithm=lambda inst, rng: RandomizedAdmissionControl.for_instance(
                        inst, random_state=rng
                    ),
                    trials=2,
                    seed=7,
                    offline="ilp",
                    ilp_time_limit=30.0,
                )
            ).ratios()

        assert run_once() == run_once()

    def test_setcover_trials(self):
        results = Runner().run(
            RunSpec(
                problem="setcover",
                factory=lambda rng: random_setcover_instance(15, 8, 25, random_state=rng),
                algorithm=lambda inst, rng: CheapestSetOnline(inst.system),
                trials=2,
                seed=1,
                label="sc",
                offline="ilp",
                ilp_time_limit=30.0,
            )
        )
        assert len(results) == 2
        assert results.all_feasible()

    def test_setcover_trials_reproducible(self):
        def run_once():
            results = Runner().run(
                RunSpec(
                    problem="setcover",
                    factory=lambda rng: random_setcover_instance(30, 15, 60, random_state=rng),
                    algorithm=lambda inst, rng: make_setcover_algorithm(
                        "reduction", inst, random_state=rng
                    ),
                    trials=3,
                    seed=8,
                    offline="lp",
                )
            )
            return results.ratios(), [row.online_cost for row in results]

        assert run_once() == run_once()


class TestReportFormatting:
    def test_format_table_alignment_and_values(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125, "c": "x"}]
        text = format_table(rows, title="T")
        assert "T" in text
        assert "a" in text and "b" in text and "c" in text
        assert "2.500" in text
        assert "10" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_records(self, star_instance):
        record = evaluate_admission_algorithm(
            star_instance, lambda inst: KeepExpensive.for_instance(inst)
        )
        text = format_records([record], title="records")
        assert "KeepExpensive" in text

    def test_format_kv(self):
        text = format_kv({"alpha": 1.2345, "flag": True}, title="params")
        assert "alpha" in text and "1.2345" in text and "yes" in text
        assert "(empty)" in format_kv({})

    def test_bool_rendering(self):
        text = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text


class TestAsciiPlots:
    def test_line_plot_contains_markers_and_bounds(self):
        plot = ascii_line_plot(
            {"series": [(1, 1), (2, 4), (3, 9)]}, width=20, height=6, title="squares"
        )
        assert "squares" in plot
        assert "*" in plot
        assert "[1, 3]" in plot

    def test_line_plot_empty(self):
        assert "(no data)" in ascii_line_plot({"empty": []})

    def test_series_table_columns(self):
        table = ascii_series_table([1, 2], {"y": [1.0, 2.0], "z": [3.0, 4.0]}, x_name="x")
        assert "x" in table and "y" in table and "z" in table
        assert "4.000" in table


class TestInvariantReport:
    def test_detects_infeasible_result(self, star_instance):
        bogus = AdmissionResult(
            algorithm="bogus",
            accepted_ids=frozenset(star_instance.requests.ids()),
            rejected_ids=frozenset(),
            preempted_ids=frozenset(),
            rejection_cost=0.0,
            feasible=True,
        )
        report = check_admission_result(star_instance, bogus)
        assert not report.ok
        assert "capacities" in str(report)

    def test_detects_partition_mismatch(self, star_instance):
        bogus = AdmissionResult(
            algorithm="bogus",
            accepted_ids=frozenset({0}),
            rejected_ids=frozenset(),
            preempted_ids=frozenset(),
            rejection_cost=0.0,
            feasible=True,
        )
        report = check_admission_result(star_instance, bogus)
        assert any("partition" in v for v in report.violations)

    def test_detects_cost_mismatch(self, star_instance):
        bogus = AdmissionResult(
            algorithm="bogus",
            accepted_ids=frozenset({0, 1}),
            rejected_ids=frozenset({2, 3, 4, 5}),
            preempted_ids=frozenset(),
            rejection_cost=1.0,  # should be 4.0
            feasible=True,
        )
        report = check_admission_result(star_instance, bogus)
        assert any("cost" in v for v in report.violations)
