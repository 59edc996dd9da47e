"""RunSpec eager-validation tests: every bad spec fails at construction time.

The satellite contract: unknown algorithm/scenario/backend keys, streaming x
offline-algorithm conflicts, and non-positive trials/jobs all raise with
self-describing messages — asserted exactly — before any worker runs.
"""

import pytest

from repro.api import RunSpec, RunSpecError
from repro.engine.registry import ADMISSION_ALGORITHMS, SETCOVER_ALGORITHMS, WEIGHT_BACKENDS, UnknownKeyError
from repro.engine.runtime import ensure_builtin_registrations
from repro.engine.streaming import STREAMING_ALGORITHMS
from repro.scenarios.registry import SCENARIOS, ensure_builtin_scenarios
from repro.workloads import cheap_then_expensive_adversary


def _spec(**overrides):
    base = dict(scenario="bursty", algorithm="fractional")
    base.update(overrides)
    return RunSpec(**base)


class TestSourceValidation:
    def test_no_source_is_exact_error(self):
        with pytest.raises(RunSpecError) as err:
            RunSpec(algorithm="fractional")
        assert str(err.value) == (
            "RunSpec needs exactly one source — pass scenario=, trace=, instance=, "
            "or factory= (got none)"
        )

    def test_two_sources_is_exact_error(self):
        instance = cheap_then_expensive_adversary(num_edges=4, capacity=1)
        with pytest.raises(RunSpecError) as err:
            RunSpec(algorithm="fractional", scenario="bursty", instance=instance)
        assert str(err.value) == (
            "RunSpec needs exactly one source — pass scenario=, trace=, instance=, "
            "or factory= (got scenario, instance)"
        )

    def test_missing_trace_file(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(RunSpecError, match="trace file not found"):
            RunSpec(algorithm="fractional", trace=missing)

    def test_scenario_params_require_scenario_source(self):
        instance = cheap_then_expensive_adversary(num_edges=4, capacity=1)
        with pytest.raises(RunSpecError) as err:
            RunSpec(
                algorithm="fractional", instance=instance,
                scenario_params={"num_requests": 5},
            )
        assert str(err.value) == (
            "scenario_params requires a scenario= or trace= source; got a instance= source"
        )

    def test_non_callable_factory(self):
        with pytest.raises(RunSpecError, match="factory must be callable"):
            RunSpec(algorithm="fractional", factory="not-a-callable")


class TestRegistryKeyValidation:
    def test_unknown_admission_algorithm_exact_message(self):
        ensure_builtin_registrations()
        known = ", ".join(ADMISSION_ALGORITHMS.keys())
        with pytest.raises(UnknownKeyError) as err:
            _spec(algorithm="nope")
        assert str(err.value) == f"unknown admission algorithm 'nope'; known: {known}"

    def test_unknown_setcover_algorithm_exact_message(self):
        ensure_builtin_registrations()
        known = ", ".join(SETCOVER_ALGORITHMS.keys())
        with pytest.raises(UnknownKeyError) as err:
            _spec(problem="setcover", mode="batch", algorithm="nope")
        assert str(err.value) == f"unknown set-cover algorithm 'nope'; known: {known}"

    def test_unknown_scenario_exact_message(self):
        ensure_builtin_scenarios()
        known = ", ".join(SCENARIOS.keys())
        with pytest.raises(UnknownKeyError) as err:
            _spec(scenario="no-such-scenario")
        assert str(err.value) == f"unknown scenario 'no-such-scenario'; known: {known}"

    def test_unknown_backend_exact_message(self):
        ensure_builtin_registrations()
        known = ", ".join(WEIGHT_BACKENDS.keys())
        with pytest.raises(UnknownKeyError) as err:
            _spec(backend="cuda")
        assert str(err.value) == f"unknown weight backend 'cuda'; known: {known}"

    def test_keys_are_case_normalised(self):
        spec = _spec(algorithm="Fractional", backend="NumPy")
        assert spec.algorithm == "fractional"
        assert spec.backend == "numpy"


class TestCountValidation:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_non_positive_trials_exact_message(self, trials):
        with pytest.raises(RunSpecError) as err:
            _spec(trials=trials)
        assert str(err.value) == f"trials must be a positive integer, got {trials!r}"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_non_positive_jobs_exact_message(self, jobs):
        with pytest.raises(RunSpecError) as err:
            _spec(jobs=jobs)
        assert str(err.value) == (
            f"jobs must be a positive integer, got {jobs!r} (resolve 'all cores' with "
            f"repro.engine.config.resolve_jobs before building the spec)"
        )

    def test_fractional_trials_rejected(self):
        with pytest.raises(RunSpecError, match="trials must be a positive integer"):
            _spec(trials=2.5)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(RunSpecError, match="seed must be an integer"):
            _spec(seed="twelve")


class TestModeValidation:
    def test_unknown_mode(self):
        with pytest.raises(RunSpecError) as err:
            _spec(mode="warp")
        assert str(err.value) == (
            "mode must be one of 'batch', 'compiled', 'streaming'; got 'warp'"
        )

    def test_unknown_problem(self):
        with pytest.raises(RunSpecError) as err:
            _spec(problem="matching")
        assert str(err.value) == (
            "problem must be one of 'admission', 'setcover'; got 'matching'"
        )

    def test_unknown_offline(self):
        with pytest.raises(RunSpecError) as err:
            _spec(offline="oracle")
        assert str(err.value) == "offline must be one of 'lp', 'ilp'; got 'oracle'"

    def test_default_mode_per_problem(self):
        assert _spec().mode == "compiled"
        assert _spec(problem="setcover", algorithm="reduction").mode == "batch"


class TestStreamingConflicts:
    def test_offline_style_algorithm_cannot_stream_exact_message(self):
        known = ", ".join(STREAMING_ALGORITHMS.keys())
        with pytest.raises(RunSpecError) as err:
            _spec(algorithm="reject-when-full", mode="streaming")
        assert str(err.value) == (
            f"algorithm 'reject-when-full' cannot run in mode='streaming'; "
            f"streaming-capable algorithms: {known}. "
            f"Use mode='batch' or mode='compiled' for offline-style algorithms."
        )

    def test_setcover_cannot_stream_exact_message(self):
        with pytest.raises(RunSpecError) as err:
            _spec(problem="setcover", algorithm="reduction", mode="streaming")
        assert str(err.value) == (
            "set-cover specs support only mode='batch' (there is no compiled or "
            "streaming path for set cover); got mode='streaming'"
        )

    def test_setcover_cannot_compile(self):
        with pytest.raises(RunSpecError, match="only mode='batch'"):
            _spec(problem="setcover", algorithm="reduction", mode="compiled")

    @pytest.mark.parametrize("key", ["fractional", "randomized", "doubling"])
    def test_streaming_capable_keys_pass(self, key):
        # (doubling-fractional streams too, but has no admission-registry
        # builder, so a spec cannot name it; sessions build it directly.)
        assert _spec(algorithm=key, mode="streaming").mode == "streaming"


class TestNormalisationAndGrid:
    def test_params_become_sorted_tuples(self):
        spec = _spec(scenario_params={"b": 2, "a": 1}, algorithm_params={"z": 3})
        assert spec.scenario_params == (("a", 1), ("b", 2))
        assert spec.algorithm_params == (("z", 3),)
        assert spec.scenario_param_dict() == {"a": 1, "b": 2}

    def test_default_label(self):
        assert _spec().label == "bursty x fractional"

    def test_replace_revalidates(self):
        spec = _spec()
        with pytest.raises(RunSpecError, match="trials must be a positive integer"):
            spec.replace(trials=0)
        assert spec.replace(trials=4).trials == 4

    def test_trace_source_resolves_to_scenario(self, tmp_path):
        from repro.scenarios import build_scenario, record_trace

        trace = record_trace(build_scenario("cheap_expensive"), tmp_path / "t.jsonl")
        spec = RunSpec(trace=trace, algorithm="fractional")
        assert spec.source_key == "trace:t"

    def test_grid_shape_and_seeds(self):
        from repro.utils.rng import stable_seed

        specs = RunSpec.grid(
            ["bursty", "flash_crowd"], ["fractional", "randomized"],
            backends=["python", "numpy"], trials=2, seed=11,
        )
        assert len(specs) == 8
        # Per-cell seeds depend on (seed, scenario, algorithm) only — the
        # sweep-compatible derivation — so both backends share a cell seed.
        for spec in specs:
            assert spec.seed == stable_seed(11, spec.source_key, spec.algorithm, "sweep")
        assert specs[0].trials == 2

    def test_grid_rejects_empty_and_duplicate_axes(self):
        with pytest.raises(RunSpecError, match="need at least one scenario"):
            RunSpec.grid([], ["fractional"])
        with pytest.raises(RunSpecError, match="need at least one algorithm"):
            RunSpec.grid(["bursty"], [])
        with pytest.raises(RunSpecError, match="duplicate scenario keys"):
            RunSpec.grid(["bursty", "bursty"], ["fractional"])
        with pytest.raises(RunSpecError, match="duplicate algorithm keys"):
            RunSpec.grid(["bursty"], ["fractional", "fractional"])
        # Specs lower-case their key, so a case variant would be a second,
        # differently seeded cell of the same algorithm.
        with pytest.raises(RunSpecError, match=r"duplicate algorithm keys in grid: \['randomized'\]"):
            RunSpec.grid(["cheap_expensive"], ["randomized", "Randomized"])
