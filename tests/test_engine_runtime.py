"""Tests for the engine config and the registry-driven algorithm builds."""

from dataclasses import fields

import pytest

from repro.core.bicriteria import BicriteriaOnlineSetCover
from repro.core.protocols import run_admission, run_setcover
from repro.core.randomized import RandomizedAdmissionControl
from repro.engine.config import EngineConfig
from repro.engine.runtime import make_admission_algorithm, make_setcover_algorithm
from repro.instances.canonical import small_set_cover, star_congestion
from repro.instances.compiled import compile_instance


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "python"
        assert config.jobs == 1

    def test_fields(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "backend", "jobs", "vectorized",
        ]

    def test_resolve_accepts_backend_name(self):
        assert EngineConfig.resolve("numpy").backend == "numpy"
        assert EngineConfig.resolve(None) == EngineConfig()
        config = EngineConfig(jobs=4)
        assert EngineConfig.resolve(config) is config

    def test_resolve_rejects_garbage(self):
        with pytest.raises(TypeError):
            EngineConfig.resolve(42)

    def test_effective_jobs(self):
        assert EngineConfig(jobs=3).effective_jobs == 3
        assert EngineConfig(jobs=0).effective_jobs >= 1


class TestRegistryBuiltAdmission:
    def test_registry_key_build_matches_direct_run(self):
        instance = star_congestion(leaves=6, capacity=2)
        algo = make_admission_algorithm("randomized", instance, random_state=0)
        result = run_admission(algo, instance, compiled=compile_instance(instance))
        direct = run_admission(
            RandomizedAdmissionControl.for_instance(instance, random_state=0), instance
        )
        assert result.rejection_cost == direct.rejection_cost
        assert result.accepted_ids == direct.accepted_ids
        assert {d.request_id for d in result.decisions} == {
            r.request_id for r in instance.requests
        }
        assert algo.backend == "python"

    def test_numpy_backend_threaded_through(self):
        instance = star_congestion(leaves=6, capacity=2)
        compiled = compile_instance(instance)
        algo = make_admission_algorithm("randomized", instance, random_state=0, backend="numpy")
        result = run_admission(algo, instance, compiled=compiled)
        assert algo.backend == "numpy"
        reference = run_admission(
            make_admission_algorithm("randomized", instance, random_state=0),
            instance,
            compiled=compiled,
        )
        assert result.rejection_cost == pytest.approx(reference.rejection_cost, abs=1e-9)


class TestRegistryBuiltSetCover:
    def test_registry_key_runs_setcover(self):
        instance = small_set_cover()
        result = run_setcover(make_setcover_algorithm("bicriteria", instance, eps=0.3), instance)
        direct_result = run_setcover(
            BicriteriaOnlineSetCover.for_instance(instance, eps=0.3), instance
        )
        assert result.cost == pytest.approx(direct_result.cost)
        assert sum(result.demands.values()) == len(instance.arrivals)

    def test_numpy_backend_threaded_through(self):
        instance = small_set_cover()
        algo = make_setcover_algorithm("reduction", instance, random_state=0, backend="numpy")
        result = run_setcover(algo, instance)
        assert algo.admission_algorithm.backend == "numpy"
        reference = run_setcover(
            make_setcover_algorithm("reduction", instance, random_state=0), instance
        )
        assert result.cost == pytest.approx(reference.cost, abs=1e-9)
        assert result.chosen_sets == reference.chosen_sets
