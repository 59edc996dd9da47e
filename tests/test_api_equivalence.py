"""Equivalence pins: `Runner.run(RunSpec(...))` reproduces every legacy path.

The facade owns no numerics: a spec in ``batch`` / ``compiled`` /
``streaming`` mode must reproduce the decision logs and competitive ratios of
the corresponding legacy entry point (direct ``run_admission``, the compiled
fast path, a hand-driven :class:`StreamingSession`), and a ``RunSpec.grid``
must reproduce :func:`run_sweep_specs` (what ``repro sweep`` runs) — at
1e-9, on both weight backends.
"""

import pytest

from repro.analysis.competitive import evaluate_admission_run, evaluate_setcover_run
from repro.api import Runner, RunSpec
from repro.core.protocols import run_admission, run_setcover
from repro.engine.config import EngineConfig
from repro.engine.executor import derive_seed_pairs
from repro.engine.runtime import make_admission_algorithm, make_setcover_algorithm
from repro.engine.streaming import StreamingSession
from repro.engine.sweep import run_sweep_specs
from repro.instances.compiled import compile_instance
from repro.scenarios import get_scenario
from repro.utils.rng import as_generator
from repro.workloads import bursty_workload, random_setcover_instance

BACKENDS = ["python", "numpy"]
SEEDS = [3, 11, 20050718]


def make_instance(seed=7):
    return bursty_workload(num_edges=12, num_requests=90, capacity=3, random_state=seed)


def capture_decisions(instance, algorithm):
    """Probe: the full decision log as comparable tuples."""
    return {
        "decisions": [
            (d.request_id, str(d.kind), d.at_request) for d in algorithm.decisions()
        ]
    }


def legacy_algorithm(instance, key, master_seed, backend, **kwargs):
    """Build the algorithm with the exact rng a single-trial spec derives."""
    _, algo_seed = derive_seed_pairs(master_seed, 1)[0]
    return make_admission_algorithm(
        key, instance, random_state=as_generator(algo_seed),
        backend=EngineConfig(backend=backend), **kwargs
    )


def decision_log(result):
    return [(d.request_id, str(d.kind), d.at_request) for d in result.decisions]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestBatchAndCompiledEquivalence:
    def run_spec(self, instance, mode, backend, seed):
        [row] = Runner().run(
            RunSpec(
                instance=instance, algorithm="doubling", backend=backend,
                mode=mode, trials=1, seed=seed, offline="lp",
                probe=capture_decisions,
            )
        )
        return row

    def test_batch_mode_matches_direct_run(self, backend, seed):
        instance = make_instance()
        row = self.run_spec(instance, "batch", backend, seed)
        algorithm = legacy_algorithm(instance, "doubling", seed, backend)
        result = run_admission(algorithm, instance)
        record = evaluate_admission_run(instance, result, offline="lp")
        assert row.extra["decisions"] == decision_log(result)
        assert row.online_cost == pytest.approx(record.online_cost, abs=1e-9)
        assert row.ratio == pytest.approx(record.ratio, abs=1e-9)

    def test_compiled_mode_matches_compiled_run(self, backend, seed):
        instance = make_instance()
        row = self.run_spec(instance, "compiled", backend, seed)
        algorithm = legacy_algorithm(instance, "doubling", seed, backend)
        result = run_admission(algorithm, instance, compiled=compile_instance(instance))
        record = evaluate_admission_run(instance, result, offline="lp")
        assert row.extra["decisions"] == decision_log(result)
        assert row.online_cost == pytest.approx(record.online_cost, abs=1e-9)
        assert row.ratio == pytest.approx(record.ratio, abs=1e-9)

    def test_streaming_mode_matches_session(self, backend, seed):
        instance = make_instance()
        row = self.run_spec(instance, "streaming", backend, seed)
        algorithm = legacy_algorithm(instance, "doubling", seed, backend)
        session = StreamingSession(
            instance.capacities, algorithm=algorithm, name=instance.name
        )
        session.submit_stream(iter(instance.requests))
        result = algorithm.result()
        record = evaluate_admission_run(instance, result, offline="lp")
        assert row.extra["decisions"] == decision_log(result)
        assert row.online_cost == pytest.approx(record.online_cost, abs=1e-9)
        assert row.ratio == pytest.approx(record.ratio, abs=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
class TestModeCrossEquivalence:
    """The three execution modes agree with each other on every algorithm."""

    @pytest.mark.parametrize("algorithm", ["fractional", "randomized", "doubling"])
    def test_modes_agree(self, backend, algorithm):
        instance = make_instance()
        ratios = {}
        for mode in ("batch", "compiled", "streaming"):
            results = Runner().run(
                RunSpec(
                    instance=instance, algorithm=algorithm, backend=backend,
                    mode=mode, trials=2, seed=5, offline="lp",
                )
            )
            ratios[mode] = results.ratios()
        assert ratios["batch"] == pytest.approx(ratios["compiled"], abs=1e-9)
        assert ratios["batch"] == pytest.approx(ratios["streaming"], abs=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSweepEquivalence:
    def test_grid_reproduces_scenario_sweep(self, backend):
        scenarios = ["cheap_expensive", "bursty"]
        algorithms = ["fractional", "randomized"]
        swept = run_sweep_specs(
            [get_scenario(s) for s in scenarios], algorithms,
            config=EngineConfig(backend=backend), num_trials=2, seed=13,
            offline="lp", ilp_time_limit=20.0,
        )
        grid = RunSpec.grid(
            scenarios, algorithms, backends=[backend],
            seed=13, trials=2, offline="lp",
        )
        results = Runner().run(grid)
        for row in swept.rows():
            swept_cell = swept.results.filter(source=row["scenario"], algorithm=row["algorithm"])
            cell = results.filter(source=row["scenario"], algorithm=row["algorithm"])
            assert cell.ratios() == pytest.approx(swept_cell.ratios(), abs=1e-9)
            assert [r.online_cost for r in cell] == pytest.approx(
                [r.online_cost for r in swept_cell], abs=1e-9
            )

    def test_trials_hand_loop_matches_facade(self, backend):
        """A hand-run trial loop (seed pairs, compiled run, evaluation) == facade."""

        def factory(rng):
            return bursty_workload(num_edges=10, num_requests=60, capacity=3, random_state=rng)

        def algorithm_factory(instance, rng):
            return make_admission_algorithm(
                "randomized", instance, random_state=rng,
                backend=EngineConfig(backend=backend),
            )

        looped = []
        for instance_seed, algo_seed in derive_seed_pairs(21, 3):
            instance = factory(as_generator(instance_seed))
            algorithm = algorithm_factory(instance, as_generator(algo_seed))
            result = run_admission(algorithm, instance, compiled=compile_instance(instance))
            looped.append(evaluate_admission_run(instance, result, offline="lp").ratio)
        results = Runner().run(
            RunSpec(
                factory=factory, algorithm=algorithm_factory, backend=backend,
                mode="compiled", trials=3, seed=21, offline="lp",
            )
        )
        assert results.ratios() == pytest.approx(looped, abs=1e-9)

    def test_setcover_trials_hand_loop_matches_facade(self, backend):
        """The set-cover trial path: hand-run loop (seed pairs, run, evaluation) == facade."""

        def factory(rng):
            return random_setcover_instance(20, 10, 30, random_state=rng)

        def algorithm_factory(instance, rng):
            return make_setcover_algorithm(
                "reduction", instance, random_state=rng,
                backend=EngineConfig(backend=backend),
            )

        looped_ratios, looped_costs = [], []
        for instance_seed, algo_seed in derive_seed_pairs(9, 2):
            instance = factory(as_generator(instance_seed))
            result = run_setcover(algorithm_factory(instance, as_generator(algo_seed)), instance)
            looped_ratios.append(evaluate_setcover_run(instance, result, offline="lp").ratio)
            looped_costs.append(result.cost)
        results = Runner().run(
            RunSpec(
                problem="setcover", factory=factory, algorithm=algorithm_factory,
                backend=backend, trials=2, seed=9, offline="lp",
            )
        )
        assert results.ratios() == pytest.approx(looped_ratios, abs=1e-9)
        assert [r.online_cost for r in results] == pytest.approx(looped_costs, abs=1e-9)


class TestCliRoutesThroughFacade:
    def test_repro_run_uses_facade(self, monkeypatch):
        """`repro run E1` executes through Runner.run."""
        import io

        from repro.api import runner as runner_module
        from repro.cli import main

        calls = []
        original = runner_module.Runner.run

        def spy(self, spec):
            calls.append(spec)
            return original(self, spec)

        monkeypatch.setattr(runner_module.Runner, "run", spy)
        out = io.StringIO()
        code = main(["run", "E1", "--quick", "--trials", "1"], out=out)
        assert code == 0
        assert calls, "repro run must dispatch through the run-spec facade"

    def test_repro_sweep_uses_facade(self, monkeypatch):
        import io

        from repro.api import runner as runner_module
        from repro.cli import main

        calls = []
        original = runner_module.Runner.run

        def spy(self, spec):
            calls.append(spec)
            return original(self, spec)

        monkeypatch.setattr(runner_module.Runner, "run", spy)
        out = io.StringIO()
        code = main(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms",
             "fractional", "--trials", "1"],
            out=out,
        )
        assert code == 0
        assert len(calls) == 1
        assert calls[0].source_key == "cheap_expensive"
