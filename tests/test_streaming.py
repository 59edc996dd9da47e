"""Tests for the streaming service layer: sessions, checkpoints, sharding.

The load-bearing property is resume equivalence: a session checkpointed
mid-stream (through a full JSON round-trip) and restored — in this process
or a fresh one, on either backend — must produce a decision log identical
(1e-9 on fractions; exactly on events) to an uninterrupted run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.shards import ProcessShardPool
from repro.engine.streaming import STREAMING_ALGORITHMS, StreamingSession
from repro.instances.request import Request
from repro.instances.serialize import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    CheckpointFormatError,
    load_checkpoint,
)
from repro.workloads.admission_traffic import adversarial_mix_workload, bursty_workload

BACKENDS = ("python", "numpy")


def make_instance(seed, *, num_requests=48):
    """A small congested instance with costs spread enough to matter."""
    from repro.workloads.costs import uniform_costs

    return bursty_workload(
        num_edges=10,
        num_requests=num_requests,
        capacity=2,
        num_hot_edges=3,
        cost_sampler=lambda count, rng: uniform_costs(count, 1.0, 6.0, rng),
        random_state=seed,
    )


def run_full(instance, algorithm, backend, *, seed=0, batch=7):
    session = StreamingSession(instance.capacities, algorithm=algorithm, backend=backend, seed=seed)
    session.submit_stream(iter(instance.requests), batch_size=batch)
    return session


def run_with_cut(instance, algorithm, backend, cut, *, seed=0, batch=7):
    """Stream to ``cut``, checkpoint through JSON, restore, stream the rest."""
    requests = list(instance.requests)
    first = StreamingSession(instance.capacities, algorithm=algorithm, backend=backend, seed=seed)
    first.submit_stream(iter(requests[:cut]), batch_size=batch)
    document = json.loads(json.dumps(first.checkpoint()))
    resumed = StreamingSession.restore(document)
    assert resumed.num_processed == cut
    resumed.submit_stream(iter(requests[cut:]), batch_size=batch)
    return resumed


def assert_logs_equal(expected, actual, tol=1e-9):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a["id"] == b["id"]
        assert a["event"] == b["event"]
        if "fraction" in a:
            assert abs(a["fraction"] - b["fraction"]) <= tol
        if "at" in a:
            assert a.get("at") == b.get("at")


class TestCheckpointRoundTrip:
    """Snapshot mid-stream x cut points x backends x seeds."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_fractional_resume_matches_uninterrupted(self, backend, seed):
        instance = make_instance(seed)
        n = instance.num_requests
        full = run_full(instance, "fractional", backend)
        for cut in (1, n // 4, n // 2, 3 * n // 4):
            resumed = run_with_cut(instance, "fractional", backend, cut)
            assert_logs_equal(full.decision_log(), resumed.decision_log())
            assert resumed.algorithm.fractional_cost() == pytest.approx(
                full.algorithm.fractional_cost(), abs=1e-9
            )
            assert resumed.algorithm.num_augmentations == full.algorithm.num_augmentations

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_resume_matches_uninterrupted(self, backend, seed):
        instance = make_instance(seed)
        n = instance.num_requests
        full = run_full(instance, "randomized", backend, seed=seed + 100)
        for cut in (n // 4, n // 2, 3 * n // 4):
            resumed = run_with_cut(instance, "randomized", backend, cut, seed=seed + 100)
            assert_logs_equal(full.decision_log(), resumed.decision_log())
            assert resumed.algorithm.rejection_cost() == pytest.approx(
                full.algorithm.rejection_cost(), abs=1e-9
            )
            assert resumed.algorithm.accepted_ids() == full.algorithm.accepted_ids()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ["doubling", "doubling-fractional"])
    def test_doubling_wrappers_resume(self, backend, algorithm):
        instance = make_instance(3)
        n = instance.num_requests
        full = run_full(instance, algorithm, backend, seed=7)
        resumed = run_with_cut(instance, algorithm, backend, n // 2, seed=7)
        assert_logs_equal(full.decision_log(), resumed.decision_log())
        assert resumed.algorithm.alpha == full.algorithm.alpha
        assert (
            resumed.algorithm.schedule.phase_alphas == full.algorithm.schedule.phase_alphas
        )

    def test_cross_backend_restore(self):
        # A python-backend checkpoint restored on numpy (and vice versa)
        # continues the exact same run: weights are bit-identical across
        # backends, so the logs agree at 1e-9.
        instance = make_instance(5)
        requests = list(instance.requests)
        cut = len(requests) // 2
        for src, dst in (("python", "numpy"), ("numpy", "python")):
            full = run_full(instance, "randomized", src, seed=2)
            first = StreamingSession(
                instance.capacities, algorithm="randomized", backend=src, seed=2
            )
            first.submit_stream(iter(requests[:cut]), batch_size=7)
            resumed = StreamingSession.restore(
                json.loads(json.dumps(first.checkpoint())), backend=dst
            )
            assert resumed.backend == dst
            resumed.submit_stream(iter(requests[cut:]), batch_size=7)
            assert_logs_equal(full.decision_log(), resumed.decision_log())

    def test_batch_size_never_changes_decisions(self):
        instance = make_instance(11)
        logs = []
        for batch in (1, 5, 64):
            session = run_full(instance, "randomized", "numpy", seed=4, batch=batch)
            logs.append(session.decision_log())
        assert_logs_equal(logs[0], logs[1])
        assert_logs_equal(logs[0], logs[2])

    def test_checkpoint_is_json_serialisable(self, tmp_path):
        instance = make_instance(1)
        session = run_full(instance, "doubling", "python", seed=9)
        path = session.save(tmp_path / "ck.json")
        document = load_checkpoint(path)
        assert document["kind"] == CHECKPOINT_KIND
        assert document["schema"] == CHECKPOINT_SCHEMA
        assert document["num_processed"] == instance.num_requests
        reloaded = StreamingSession.load(path)
        assert reloaded.num_processed == session.num_processed
        assert_logs_equal(session.decision_log(), reloaded.decision_log())


class TestCheckpointValidation:
    # Schema 1 predates the single shard-pool kind, schema 2 the columnar
    # algorithm state and schema 3 still carries ``record``; there is no
    # converter.
    @pytest.mark.parametrize("schema", [99, 1, 2, 3])
    def test_unknown_schema_rejected(self, schema):
        instance = make_instance(0)
        session = run_full(instance, "fractional", "python")
        document = session.checkpoint()
        document["schema"] = schema
        with pytest.raises(CheckpointFormatError, match="schema"):
            StreamingSession.restore(document)

    def test_wrong_kind_rejected(self):
        with pytest.raises(CheckpointFormatError, match="kind"):
            StreamingSession.restore({"kind": "nope", "schema": CHECKPOINT_SCHEMA})

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointFormatError, match="JSON"):
            StreamingSession.load(path)

    def test_restore_into_used_algorithm_rejected(self):
        instance = make_instance(0)
        session = run_full(instance, "fractional", "python")
        document = session.checkpoint()
        # The restored session builds a fresh algorithm internally; poking the
        # state into an already-used algorithm must fail loudly.
        with pytest.raises(ValueError, match="freshly constructed"):
            session.algorithm.restore_state(document["algorithm_state"])

    def test_external_algorithm_objects_not_checkpointable(self):
        from repro.core.fractional import FractionalAdmissionControl

        instance = make_instance(0)
        algo = FractionalAdmissionControl.for_instance(instance)
        session = StreamingSession(instance.capacities, algorithm=algo)
        session.submit(instance.requests[0])
        with pytest.raises(TypeError, match="externally-built"):
            session.checkpoint()


class TestStreamingSessionBasics:
    @pytest.mark.parametrize("order", ["aligned", "misaligned"])
    def test_submit_matches_submit_batch(self, order):
        instance = make_instance(2)
        one = StreamingSession(instance.capacities, algorithm="fractional")
        for request in instance.requests:
            one.submit(request)
        if order == "aligned":
            batched = run_full(instance, "fractional", "python", batch=16)
        else:
            # The session interns the reverse of the externally built
            # algorithm's edge order, so every batch runs the translation.
            from repro.core.fractional import FractionalAdmissionControl

            reversed_caps = dict(reversed(list(instance.capacities.items())))
            batched = StreamingSession(
                reversed_caps, algorithm=FractionalAdmissionControl(instance.capacities)
            )
            batched.submit_stream(iter(instance.requests), batch_size=16)
        assert_logs_equal(one.decision_log(), batched.decision_log())

    def test_duplicate_request_id_rejected(self):
        instance = make_instance(2)
        session = StreamingSession(instance.capacities, algorithm="fractional")
        session.submit(instance.requests[0])
        with pytest.raises(ValueError, match="already processed"):
            session.submit(instance.requests[0])

    def test_unknown_edge_rejected(self):
        session = StreamingSession({"a": 1, "b": 1}, algorithm="fractional")
        with pytest.raises(ValueError):
            session.submit_batch([Request(0, frozenset(["zzz"]), 1.0)])

    def test_unknown_algorithm_key_rejected(self):
        with pytest.raises(KeyError, match="streaming algorithm"):
            StreamingSession({"a": 1}, algorithm="no-such-algorithm")

    def test_retain_log_false_streams_without_accumulating(self):
        instance = make_instance(2)
        retained = run_full(instance, "randomized", "python", seed=3)
        session = StreamingSession(
            instance.capacities, algorithm="randomized", seed=3, retain_log=False
        )
        streamed = []
        for lo in range(0, instance.num_requests, 7):
            streamed.extend(session.submit_batch(list(instance.requests)[lo : lo + 7]))
        assert_logs_equal(retained.decision_log(), streamed)
        assert session.num_decisions == len(streamed)
        assert session._decision_log == []
        with pytest.raises(RuntimeError, match="retain_log"):
            session.decision_log()

    def test_summary_shape(self):
        instance = make_instance(2)
        session = run_full(instance, "doubling", "numpy", seed=1)
        summary = session.summary()
        assert summary["processed"] == instance.num_requests
        assert summary["algorithm"] == "doubling"
        assert summary["backend"] == "numpy"
        assert "rejection_cost" in summary


class TestBatchAtomicity:
    """A rejected micro-batch (or single arrival) leaves no trace in the session."""

    @staticmethod
    def bad_batch(requests, kind):
        fresh = requests[4:7]
        if kind == "unknown-edge":
            return fresh + [Request(10_000, frozenset(["no-such-edge"]), 1.0)]
        if kind == "processed-id":
            return fresh + [requests[0]]
        return fresh + [requests[4]]  # an id repeated within the batch

    @pytest.mark.parametrize(
        "via, kind",
        [
            ("submit_batch", "unknown-edge"),
            ("submit_batch", "processed-id"),
            ("submit_batch", "repeated-id"),
            ("submit", "unknown-edge"),
            ("submit", "processed-id"),
        ],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS.keys())
    def test_rejected_arrivals_leave_no_trace(self, algorithm, backend, via, kind):
        instance = make_instance(4)
        requests = list(instance.requests)

        def started():
            session = StreamingSession(
                instance.capacities, algorithm=algorithm, backend=backend, seed=3
            )
            session.submit_batch(requests[:4])
            return session

        clean, hit = started(), started()
        bad = self.bad_batch(requests, kind)
        with pytest.raises(ValueError):
            if via == "submit_batch":
                hit.submit_batch(bad)
            else:
                hit.submit(bad[-1])
        assert hit.num_processed == clean.num_processed == 4
        assert hit.num_decisions == clean.num_decisions
        assert_logs_equal(clean.submit_batch(requests[4:12]), hit.submit_batch(requests[4:12]))
        assert_logs_equal(clean.decision_log(), hit.decision_log())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS.keys())
    def test_algorithm_refusal_leaves_no_trace(self, algorithm, backend):
        # An unweighted algorithm refuses a non-unit cost; the batch's
        # earlier arrivals must not be decided either.
        instance = make_instance(4)
        unit = [request.with_cost(1.0) for request in instance.requests]
        kwargs = {"weighted": False} if algorithm in ("randomized", "doubling") else {"unweighted": True}

        def started():
            session = StreamingSession(
                instance.capacities, algorithm=algorithm, backend=backend, seed=3,
                algorithm_kwargs=kwargs,
            )
            session.submit_batch(unit[:4])
            return session

        clean, hit = started(), started()
        bad = unit[4:6] + [unit[6].with_cost(2.0)]
        with pytest.raises(ValueError, match="unit costs"):
            hit.submit_batch(bad)
        assert hit.num_processed == clean.num_processed == 4
        assert hit.checkpoint() == clean.checkpoint()
        assert_logs_equal(clean.submit_batch(unit[4:12]), hit.submit_batch(unit[4:12]))
        assert_logs_equal(clean.decision_log(), hit.decision_log())

    @staticmethod
    def bad_pool_batch(pool, capacities, requests, kind):
        """Twelve valid arrivals over both shards, then one that must sink the batch."""
        head = requests[:12]
        by_shard = {}
        for edge in capacities:
            by_shard.setdefault(pool.shard_of(Request(0, frozenset([edge]), 1.0)), edge)
        assert len(by_shard) == 2 and len({pool.shard_of(r) for r in head}) == 2
        if kind == "spanning":
            return head + [Request(10_000, frozenset(by_shard.values()), 1.0)]
        if kind == "unknown-edge":
            return head + [Request(10_000, frozenset(["no-such-edge"]), 1.0)]
        # The first arrival's id again, on an edge of the other shard.
        other = next(e for k, e in by_shard.items() if k != pool.shard_of(head[0]))
        return head + [Request(head[0].request_id, frozenset([other]), 1.0)]

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("spanning", "spans shards"),
            ("unknown-edge", "unknown edge 'no-such-edge'"),
            ("repeated-across-shards", "duplicate request id"),
        ],
        ids=["spanning", "unknown-edge", "repeated-across-shards"],
    )
    @pytest.mark.parametrize("start_method", ["inline", None], ids=["inline", "process"])
    def test_pool_rejected_batch_leaves_no_trace(self, start_method, kind, message):
        mix = adversarial_mix_workload(num_edges=8, capacity=2, random_state=3)
        requests = list(mix.requests)

        def pool():
            return ProcessShardPool(
                mix.capacities, 2, "randomized", seed=3, start_method=start_method
            )

        with pool() as clean, pool() as hit:
            with pytest.raises(ValueError, match=message):
                hit.submit_batch(self.bad_pool_batch(hit, mix.capacities, requests, kind))
            assert hit.num_processed == clean.num_processed == 0
            assert hit.num_decisions == clean.num_decisions == 0
            assert hit.decision_logs() == clean.decision_logs()
            assert clean.submit_batch(requests) == hit.submit_batch(requests)
            assert hit.decision_logs() == clean.decision_logs()


class TestSessionInterning:
    """A session interns its edges once; each micro-batch compiles only its paths."""

    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS.keys())
    def test_one_interning_and_translation_per_session(self, algorithm, monkeypatch):
        import repro.engine.streaming as streaming
        import repro.instances.compiled as compiled_module
        from repro.engine.backends import WeightBackend

        interned = []
        real_intern = compiled_module.intern_edges

        def spy_intern(capacities):
            interned.append(real_intern(capacities))
            return interned[-1]

        compiled_against = []
        real_compile = streaming.compile_sequence

        def spy_compile(requests, capacities, **kwargs):
            compiled_against.append(capacities)
            return real_compile(requests, capacities, **kwargs)

        # Only the translation reads the backend's edge order: one read per
        # comparison of a compiled batch's interning with the backend's.
        order_reads = []
        real_order = WeightBackend.edge_order

        def spy_order(self):
            order_reads.append(self)
            return real_order.fget(self)

        monkeypatch.setattr(compiled_module, "intern_edges", spy_intern)
        monkeypatch.setattr(streaming, "intern_edges", spy_intern)
        monkeypatch.setattr(streaming, "compile_sequence", spy_compile)
        monkeypatch.setattr(WeightBackend, "edge_order", property(spy_order))

        instance = make_instance(5, num_requests=96)
        requests = list(instance.requests)
        session = StreamingSession(
            instance.capacities, algorithm=algorithm, backend="numpy", seed=2
        )
        session.submit_stream(iter(requests[:40]), batch_size=5)
        assert len(interned) == 1
        assert len(compiled_against) == 8
        assert all(against is interned[0] for against in compiled_against)
        assert len(order_reads) == 1

        resumed = StreamingSession.restore(json.loads(json.dumps(session.checkpoint())))
        resumed.submit_stream(iter(requests[40:]), batch_size=5)
        assert len(interned) == 2
        assert len(compiled_against) == 8 + 12
        assert all(against is interned[1] for against in compiled_against[8:])
        assert len(order_reads) == 2

        uninterrupted = run_full(instance, algorithm, "numpy", seed=2, batch=5)
        assert_logs_equal(uninterrupted.decision_log(), resumed.decision_log())


class TestStreamingSweepPath:
    def test_streaming_sweep_matches_batch_sweep(self):
        # The serving-layer execution path must not change a single number.
        from repro.engine.config import EngineConfig
        from repro.engine.sweep import run_sweep_specs
        from repro.scenarios import get_scenario

        kwargs = dict(
            algorithms=["fractional", "randomized"],
            config=EngineConfig(backend="numpy"),
            num_trials=2,
            seed=13,
            offline="lp",
            ilp_time_limit=20.0,
        )
        scenarios = [get_scenario("cheap_expensive")]
        batch = run_sweep_specs(scenarios, **kwargs)
        streamed = run_sweep_specs(scenarios, streaming=True, **kwargs)
        for row in batch.rows():
            cell = dict(source=row["scenario"], algorithm=row["algorithm"])
            assert streamed.results.filter(**cell).ratios() == pytest.approx(
                batch.results.filter(**cell).ratios(), abs=1e-9
            )


class TestServeCliFreshProcess:
    """`repro serve --resume` in a *fresh process* continues bit-identically."""

    def run_serve(self, args, cwd):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = repo_src + (os.pathsep + existing if existing else "")
        env["PYTHONHASHSEED"] = "random"
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )

    def test_interrupted_serve_log_equals_uninterrupted(self, tmp_path):
        from repro.scenarios.trace import record_trace

        instance = make_instance(8, num_requests=90)
        trace = record_trace(instance, tmp_path / "t.jsonl")
        base = ["--trace", str(trace), "--algorithm", "doubling", "--seed", "5"]

        self.run_serve(
            base
            + ["--checkpoint", "ck.json", "--checkpoint-every", "30",
               "--max-arrivals", "45", "--log", "part.jsonl"],
            tmp_path,
        )
        self.run_serve(
            ["--trace", str(trace), "--resume", "--checkpoint", "ck.json",
             "--log", "part.jsonl"],
            tmp_path,
        )
        self.run_serve(base + ["--log", "full.jsonl"], tmp_path)

        part = [json.loads(line) for line in (tmp_path / "part.jsonl").read_text().splitlines()]
        full = [json.loads(line) for line in (tmp_path / "full.jsonl").read_text().splitlines()]
        assert_logs_equal(full, part)
