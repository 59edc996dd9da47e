"""Tests for the parallel trial executor and deterministic seed derivation."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.api import Runner, RunSpec
from repro.engine.executor import derive_seed_pairs, execute, is_picklable
from repro.utils.rng import spawn_generators
from repro.workloads import overloaded_edge_adversary


def _square(x):  # module-level: picklable, process-pool eligible
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _log_call_then_raise_on_three(item):
    # Appends one line per call, so calls made in worker processes are counted.
    log_path, x, error_type = item
    with open(log_path, "a") as log:
        log.write(f"{x}\n")
    if x == 3:
        raise error_type(f"item {x} failed")
    return x


def _logged_calls(log_path):
    return sorted(int(line) for line in Path(log_path).read_text().split())


def _forbid_pool(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} must not be created here")

    return refuse


class TestExecute:
    def test_serial_matches_map(self):
        assert execute(_square, range(6), jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_parallel_process_pool_matches_serial(self):
        assert execute(_square, range(10), jobs=2) == [x * x for x in range(10)]

    def test_parallel_with_closures_falls_back_to_threads(self):
        offset = 7
        fn = lambda x: x + offset  # noqa: E731 — closure, not picklable
        assert not is_picklable(fn)
        assert execute(fn, range(5), jobs=2) == [7, 8, 9, 10, 11]

    def test_zero_jobs_means_all_cores(self):
        assert execute(_square, range(4), jobs=0) == [0, 1, 4, 9]

    def test_empty_items(self):
        assert execute(_square, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            execute(_fail_on_three, range(5), jobs=2)
        with pytest.raises(ValueError):
            execute(_fail_on_three, range(5), jobs=1)

    def test_worker_oserror_runs_each_item_once(self, tmp_path):
        """An OSError raised by ``fn`` is the item's error, not a failed pool start."""
        log_path = tmp_path / "calls.log"
        items = [(str(log_path), x, FileNotFoundError) for x in range(4)]
        with pytest.raises(FileNotFoundError):
            execute(_log_call_then_raise_on_three, items, jobs=2)
        assert _logged_calls(log_path) == [0, 1, 2, 3]

    def test_worker_pickling_error_runs_each_item_once(self, tmp_path):
        """A PicklingError raised inside ``fn`` does not send the work to threads."""
        log_path = tmp_path / "calls.log"
        items = [(str(log_path), x, pickle.PicklingError) for x in range(4)]
        with pytest.raises(pickle.PicklingError):
            execute(_log_call_then_raise_on_three, items, jobs=2)
        assert _logged_calls(log_path) == [0, 1, 2, 3]

    def test_thread_lane_oserror_runs_each_item_once(self):
        calls = []

        def lose_trace_three(x):  # closure over ``calls``: runs on threads
            calls.append(x)
            if x == 3:
                raise FileNotFoundError(f"trace {x} was deleted")
            return x

        assert not is_picklable(lose_trace_three)
        with pytest.raises(FileNotFoundError):
            execute(lose_trace_three, range(4), jobs=2)
        assert sorted(calls) == [0, 1, 2, 3]

    def test_prefer_processes_false_stays_on_threads(self, monkeypatch):
        from repro.engine import executor as executor_module

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _forbid_pool("ProcessPoolExecutor")
        )
        assert execute(_square, range(5), jobs=2, prefer_processes=False) == [0, 1, 4, 9, 16]

    def test_single_item_runs_serially(self, monkeypatch):
        """``jobs`` is capped by the item count: one item never starts a pool."""
        from repro.engine import executor as executor_module

        for name in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            monkeypatch.setattr(executor_module, name, _forbid_pool(name))
        assert execute(_square, [7], jobs=4) == [49]

    @pytest.mark.parametrize("failing_step", ["create", "submit"])
    def test_process_pool_start_failure_falls_back_to_threads(self, monkeypatch, failing_step):
        from repro.engine import executor as executor_module

        class UnstartablePool:
            def __init__(self, max_workers):
                if failing_step == "create":
                    raise OSError("no process pool here")

            def submit(self, fn, item):
                raise OSError("cannot start a worker process")

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", UnstartablePool)
        assert execute(_square, range(5), jobs=2) == [0, 1, 4, 9, 16]


class TestSeedDerivation:
    def test_matches_spawn_generators(self):
        """Trial t's streams equal spawn_generators' children 2t and 2t+1."""
        pairs = derive_seed_pairs(1234, 4)
        legacy = spawn_generators(1234, 8)
        for t, (instance_seed, algo_seed) in enumerate(pairs):
            expected_inst = legacy[2 * t].integers(0, 1000, size=5)
            expected_algo = legacy[2 * t + 1].integers(0, 1000, size=5)
            got_inst = np.random.default_rng(instance_seed).integers(0, 1000, size=5)
            got_algo = np.random.default_rng(algo_seed).integers(0, 1000, size=5)
            assert list(expected_inst) == list(got_inst)
            assert list(expected_algo) == list(got_algo)

    def test_pairs_are_picklable(self):
        assert is_picklable(derive_seed_pairs(0, 3))

    def test_generator_input_supported(self):
        pairs = derive_seed_pairs(np.random.default_rng(5), 2)
        assert len(pairs) == 2
        assert all(isinstance(s, int) for pair in pairs for s in pair)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seed_pairs(0, -1)


class TestParallelTrials:
    def _results(self, jobs):
        return Runner().run(
            RunSpec(
                factory=lambda rng: overloaded_edge_adversary(
                    8, 2, num_hot_edges=2, random_state=rng
                ),
                algorithm=lambda instance, rng: __import__(
                    "repro.core.randomized", fromlist=["RandomizedAdmissionControl"]
                ).RandomizedAdmissionControl.for_instance(instance, random_state=rng),
                trials=4,
                seed=777,
                offline="lp",
                jobs=jobs,
            )
        )

    def test_jobs_do_not_change_results(self):
        """jobs=1 and jobs=3 produce bit-identical trial records."""
        serial = self._results(jobs=1)
        parallel = self._results(jobs=3)
        assert len(serial) == len(parallel) == 4
        assert serial.ratios() == parallel.ratios()
        assert [r.online_cost for r in serial] == [r.online_cost for r in parallel]
