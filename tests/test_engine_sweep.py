"""Tests for the scenario sweep behind ``repro sweep`` (engine/sweep.py)."""

import json

import pytest

from repro.api.sources import RegistryAlgorithmFactory, ScenarioSource
from repro.engine.config import EngineConfig
from repro.engine.registry import UnknownKeyError
from repro.engine.sweep import run_sweep_specs
from repro.scenarios import get_scenario

#: Small, fast matrix shared by most tests: deterministic trap + tiny bursty.
SCENARIOS = ["cheap_expensive", "bursty"]
ALGORITHMS = ["fractional", "reject-when-full"]
OVERRIDES = {"bursty": (("num_edges", 16), ("num_requests", 40))}


def small_sweep(
    scenarios=SCENARIOS,
    algorithms=ALGORITHMS,
    *,
    jobs=1,
    num_trials=2,
    seed=3,
    overrides=OVERRIDES,
    streaming=False,
):
    """Resolve the scenario keys as ``repro sweep`` does, then run the matrix."""
    return run_sweep_specs(
        [get_scenario(s) for s in scenarios],
        algorithms,
        config=EngineConfig(jobs=jobs),
        num_trials=num_trials,
        seed=seed,
        offline="lp",
        ilp_time_limit=20.0,
        streaming=streaming,
        overrides=overrides,
    )


class TestRunSweepSpecs:
    def test_runs_full_matrix(self):
        result = small_sweep()
        rows = result.rows()
        assert len(rows) == len(SCENARIOS) * len(ALGORITHMS)
        assert {(r["scenario"], r["algorithm"]) for r in rows} == {
            (s, a) for s in SCENARIOS for a in ALGORITHMS
        }
        assert all(r["trials"] == 2 for r in rows)
        assert all(r["ratio_mean"] >= 1.0 - 1e-9 for r in rows)

    def test_jobs_never_change_results(self):
        serial = small_sweep(jobs=1)
        parallel = small_sweep(jobs=2)
        for row in serial.rows():
            cell = dict(source=row["scenario"], algorithm=row["algorithm"])
            assert (
                serial.results.filter(**cell).ratios() == parallel.results.filter(**cell).ratios()
            ), cell

    def test_cell_seeds_are_independent_of_grid(self):
        """Removing a scenario must not perturb the remaining cells' numbers."""
        full = small_sweep()
        just_bursty = small_sweep(scenarios=["bursty"])
        for algorithm in ALGORITHMS:
            assert (
                full.results.filter(source="bursty", algorithm=algorithm).ratios()
                == just_bursty.results.filter(source="bursty", algorithm=algorithm).ratios()
            )

    def test_fractional_cells_compare_against_lp(self):
        result = small_sweep(algorithms=["fractional"])
        assert all(r.offline_kind.startswith("lp") for r in result.results)

    def test_trace_scenarios_join_the_matrix(self, tmp_path):
        from repro.scenarios import build_scenario, record_trace, scenario_from_trace

        path = record_trace(build_scenario("cheap_expensive"), tmp_path / "cell.jsonl")
        scenario = scenario_from_trace(path, register=False)
        result = small_sweep([scenario], ["reject-when-full"], seed=0, overrides=None)
        cell = result.results.filter(source=scenario.key, algorithm="reject-when-full")
        # The trace is deterministic, so every trial measures the same ratio.
        assert len(set(cell.ratios())) == 1

    def test_streaming_baseline_fallback_still_works(self):
        """``repro sweep --streaming`` streams baselines through a session, like any key."""
        batch = small_sweep(["cheap_expensive"], ["reject-when-full"], num_trials=1, overrides=None)
        streamed = small_sweep(
            ["cheap_expensive"], ["reject-when-full"], num_trials=1, overrides=None,
            streaming=True,
        )
        cell = dict(source="cheap_expensive", algorithm="reject-when-full")
        assert streamed.results.filter(**cell).ratios() == pytest.approx(
            batch.results.filter(**cell).ratios(), abs=1e-9
        )

    @pytest.mark.parametrize("streaming", [False, True])
    def test_cells_carry_the_canonical_algorithm_key(self, streaming):
        """Keys differing only in case are one cell, so listing both is a duplicate."""
        result = small_sweep(
            ["cheap_expensive"], ["Fractional", "Reject-When-Full"], num_trials=1,
            overrides=None, streaming=streaming,
        )
        assert result.algorithms == ["fractional", "reject-when-full"]
        assert [(c["algorithm"], c["ratios"]) for c in result.to_dict()["cells"]] == [
            ("fractional", pytest.approx([1.6710700135802004])),
            ("reject-when-full", pytest.approx([50.0])),
        ]
        with pytest.raises(ValueError, match="duplicate algorithm keys"):
            small_sweep(["cheap_expensive"], ["fractional", "Fractional"], overrides=None)

    def test_report_and_tables(self):
        result = small_sweep()
        report = result.report()
        assert "Cross-scenario comparison" in report
        for scenario in SCENARIOS:
            assert scenario in report
        for algorithm in ALGORITHMS:
            assert f"ratio[{algorithm}]" in report

    def test_save_round_trips_as_json(self, tmp_path):
        result = small_sweep()
        path = result.save(tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert payload["scenarios"] == SCENARIOS
        assert payload["algorithms"] == ALGORITHMS
        assert len(payload["cells"]) == len(SCENARIOS) * len(ALGORITHMS)
        assert all(len(cell["ratios"]) == 2 for cell in payload["cells"])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            small_sweep([], ["fractional"])
        with pytest.raises(ValueError, match="algorithm"):
            small_sweep(["bursty"], [])

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario"):
            small_sweep(["bursty", "bursty"], ["fractional"])
        with pytest.raises(ValueError, match="duplicate algorithm"):
            small_sweep(["bursty"], ["fractional", "fractional"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(UnknownKeyError, match="scenario"):
            small_sweep(["no-such"], ["fractional"])

    def test_unknown_algorithm_fails_at_run(self):
        with pytest.raises(UnknownKeyError, match="admission algorithm"):
            small_sweep(scenarios=["cheap_expensive"], algorithms=["no-such-algo"])


class TestSweepFactories:
    def test_instance_factory_applies_overrides(self):
        import numpy as np

        factory = ScenarioSource(get_scenario("bursty"), (("num_requests", 17), ("num_edges", 8)))
        instance = factory(np.random.default_rng(0))
        assert instance.num_requests == 17
        assert instance.num_edges == 8

    def test_factories_are_picklable(self):
        import pickle

        factory = ScenarioSource(get_scenario("bursty"))
        algo_factory = RegistryAlgorithmFactory("fractional", EngineConfig())
        pickle.loads(pickle.dumps(factory))
        pickle.loads(pickle.dumps(algo_factory))
