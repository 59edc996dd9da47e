"""Tests for the shard pool: partition equivalence, transports, checkpoints.

Three contracts are load-bearing:

* **Partition equivalence** — the pool must reproduce, decision for
  decision, one plain session per namespace shard fed that shard's arrivals
  in order: scale-out must never change the answer.
* **Transport independence** — shards in the calling process
  (``start_method="inline"``) and in worker processes give identical
  results, and a checkpoint written under one transport resumes under the
  other.
* **Resume equivalence** — a pool checkpointed, killed, and restored must
  finish the stream with the same decisions as an uninterrupted pool.
"""

import json

import pytest

from repro.api import RunSpec, Runner
from repro.engine.shards import (
    POOL_CHECKPOINT_KIND,
    ProcessShardPool,
    default_namespace,
    validate_shard_partition,
)
from repro.engine.streaming import StreamingSession
from repro.instances.request import Request
from repro.instances.serialize import CheckpointFormatError, decode_edge_id, load_checkpoint
from repro.utils.rng import stable_seed
from repro.workloads.admission_traffic import adversarial_mix_workload

BACKENDS = ("python", "numpy")

#: Every behavioural test runs under both transports.
TRANSPORTS = pytest.mark.parametrize(
    "start_method", ["inline", None], ids=["inline", "process"]
)

#: Explicit g so every execution path prices fractions identically regardless
#: of how capacities are partitioned across shards (the default g is 2*m*c,
#: which is partition-dependent by construction).
G = 8.0


def mix_instance(seed=3):
    """Namespaced multi-block workload: the shard partition has real spread."""
    return adversarial_mix_workload(num_edges=8, capacity=2, random_state=seed)


def namespace_shard(edge, num_shards):
    """The partition, spelled out independently of the pool."""
    return stable_seed(default_namespace(edge), "stream-shard") % num_shards


def reference_sessions(capacities, requests, num_shards, *, seed, **kwargs):
    """One plain session per non-empty shard, fed that shard's arrivals in order."""
    caps = {}
    for edge, cap in capacities.items():
        caps.setdefault(namespace_shard(edge, num_shards), {})[edge] = cap
    sessions = {
        k: StreamingSession(shard_caps, seed=stable_seed(seed, "stream-shard", k), **kwargs)
        for k, shard_caps in caps.items()
    }
    for request in requests:
        sessions[namespace_shard(request.ordered_edges[0], num_shards)].submit(request)
    return sessions


def assert_logs_equal(expected, actual, tol=1e-9):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a["id"] == b["id"]
        assert a["event"] == b["event"]
        if "fraction" in a:
            assert abs(a["fraction"] - b["fraction"]) <= tol
        if "at" in a:
            assert a.get("at") == b.get("at")


def assert_shard_logs_equal(expected, actual):
    assert set(expected) == set(actual)
    for shard in expected:
        assert_logs_equal(expected[shard], actual[shard])


def total_cost(summary):
    return sum(line["fractional_cost"] for line in summary["shards"].values())


def edges_in_two_shards(pool, capacities):
    """Two edges the pool places in different shards."""
    by_shard = {}
    for edge in capacities:
        by_shard.setdefault(pool.shard_of(Request(0, frozenset([edge]), 1.0)), edge)
    assert len(by_shard) >= 2, "the mix should spread over several shards"
    first, second = list(by_shard.values())[:2]
    return first, second


@TRANSPORTS
class TestNamespaceEquivalence:
    """Pool == one plain session per namespace shard, per backend and transport."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pool_matches_per_shard_sessions(self, backend, start_method):
        mix = mix_instance()
        reference = reference_sessions(
            mix.capacities, mix.requests, 2, seed=7, algorithm="fractional",
            backend=backend, algorithm_kwargs={"g": G},
        )
        with ProcessShardPool(
            mix.capacities, 2, "fractional", backend=backend, seed=7,
            algorithm_kwargs={"g": G}, start_method=start_method,
        ) as pool:
            pool.submit_batch(list(mix.requests))
            pool_logs = pool.decision_logs()
            pool_summary = pool.summary()
        assert_shard_logs_equal({k: s.decision_log() for k, s in reference.items()}, pool_logs)
        reference_cost = sum(s.summary()["fractional_cost"] for s in reference.values())
        assert abs(total_cost(pool_summary) - reference_cost) <= 1e-9

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shard_count_invariance(self, backend, start_method):
        mix = mix_instance()
        costs = {}
        for shards in (1, 2, 4):
            with ProcessShardPool(
                mix.capacities, shards, "fractional", backend=backend, seed=11,
                algorithm_kwargs={"g": G}, retain_log=False, start_method=start_method,
            ) as pool:
                pool.submit_stream(iter(mix.requests))
                costs[shards] = total_cost(pool.summary())
        reference = costs[1]
        assert all(abs(c - reference) <= 1e-9 * max(abs(reference), 1.0) for c in costs.values())

    def test_shard_of_matches_namespace_partition(self, start_method):
        mix = mix_instance()
        with ProcessShardPool(
            mix.capacities, 3, "fractional", seed=0, retain_log=False,
            start_method=start_method,
        ) as pool:
            for request in mix.requests:
                assert pool.shard_of(request) == namespace_shard(request.ordered_edges[0], 3)


@TRANSPORTS
class TestShardPoolStreaming:
    def test_namespace_partition_routes_all_requests(self, start_method):
        mix = mix_instance()
        with ProcessShardPool(
            mix.capacities, 3, "fractional", seed=1, start_method=start_method
        ) as pool:
            pool.submit_batch(list(mix.requests))
            assert pool.num_processed == mix.num_requests
            document = pool.checkpoint()
        # Every edge landed in exactly one shard.
        shard_edges = [
            {decode_edge_id(item["edge"]) for item in shard["capacities"]}
            for shard in document["shards"]
            if shard is not None
        ]
        union = set().union(*shard_edges)
        assert union == set(mix.capacities)
        assert sum(len(e) for e in shard_edges) == len(union)

    def test_cross_namespace_request_rejected(self, start_method):
        mix = mix_instance()
        with ProcessShardPool(mix.capacities, 2, seed=1, start_method=start_method) as pool:
            assert len({default_namespace(e) for e in mix.capacities}) > 1
            a, b = edges_in_two_shards(pool, mix.capacities)
            with pytest.raises(ValueError, match="spans shards"):
                pool.submit_batch([Request(999, frozenset([a, b]), 1.0)])

    def test_checkpoint_resume_matches_uninterrupted(self, start_method, tmp_path):
        mix = mix_instance()
        requests = list(mix.requests)
        cut = len(requests) // 2
        with ProcessShardPool(
            mix.capacities, 3, "randomized", seed=5, start_method=start_method
        ) as full:
            full.submit_batch(requests)
            full_logs = full.decision_logs()
        with ProcessShardPool(
            mix.capacities, 3, "randomized", seed=5, start_method=start_method
        ) as first:
            first.submit_batch(requests[:cut])
            path = first.save(tmp_path / "pool.json")
        document = load_checkpoint(path, expected_kind=POOL_CHECKPOINT_KIND)
        assert document["num_shards"] == 3
        with ProcessShardPool.load(path, start_method=start_method) as resumed:
            assert resumed.num_processed == cut
            resumed.submit_batch(requests[cut:])
            assert_shard_logs_equal(full_logs, resumed.decision_logs())

    def test_entries_in_arrival_order_regardless_of_batching(self, start_method):
        # Regression: shard-grouped emission ordered entries by shard within
        # each batch, making the combined stream depend on batch boundaries.
        mix = mix_instance()
        requests = list(mix.requests)
        streams = []
        for batches in ([requests], [requests[:17], requests[17:]], [[r] for r in requests]):
            with ProcessShardPool(
                mix.capacities, 3, "doubling", seed=2, start_method=start_method
            ) as pool:
                entries = []
                for batch in batches:
                    entries.extend(pool.submit_batch(batch))
            streams.append(entries)
        assert streams[0] == streams[1] == streams[2]

    def test_per_shard_seeds_differ(self, start_method):
        mix = mix_instance()
        with ProcessShardPool(
            mix.capacities, 3, "randomized", seed=5, start_method=start_method
        ) as pool:
            seeds = [shard["seed"] for shard in pool.checkpoint()["shards"] if shard is not None]
        assert len(seeds) > 1
        assert len(set(seeds)) == len(seeds)

    def test_session_checkpoint_rejected_as_pool_checkpoint(self, start_method, tmp_path):
        mix = mix_instance()
        session = StreamingSession(mix.capacities, algorithm="fractional")
        session.submit_batch(list(mix.requests))
        path = session.save(tmp_path / "ck.json")
        with pytest.raises(CheckpointFormatError, match="kind"):
            ProcessShardPool.load(path, start_method=start_method)

    def test_tuple_edge_ids_share_default_namespace(self, start_method):
        # Tuple edge ids (the network layer) have no declared namespaces, so
        # they all shard together — multi-edge requests must not be rejected.
        capacities = {(0, 1): 2, (1, 2): 2, (2, 3): 2}
        with ProcessShardPool(capacities, 4, "fractional", start_method=start_method) as pool:
            pool.submit_batch([Request(0, frozenset([(0, 1), (1, 2)]), 1.0)])
            assert pool.num_processed == 1
            assert len(pool.shard_stats()) == 1


class TestUncollectedBatches:
    def test_one_message_per_shard_same_decisions(self, monkeypatch):
        # collect=False hands each shard all its arrivals at once; the
        # per-shard logs equal the run-by-run (collect=True) split.
        mix = mix_instance()
        requests = list(mix.requests)
        with ProcessShardPool(
            mix.capacities, 3, "randomized", seed=5, start_method="inline"
        ) as runs:
            runs.submit_batch(requests)
            expected = runs.decision_logs()

        calls = []
        real_submit_batch = StreamingSession.submit_batch

        def spy(session, batch):
            calls.append(len(batch))
            return real_submit_batch(session, batch)

        monkeypatch.setattr(StreamingSession, "submit_batch", spy)
        with ProcessShardPool(
            mix.capacities, 3, "randomized", seed=5, start_method="inline"
        ) as grouped:
            grouped.submit_batch(requests, collect=False)
            assert grouped.drain() == len(requests)
            assert len(calls) == len(grouped.shard_stats())
            assert sum(calls) == len(requests)
            assert_shard_logs_equal(expected, grouped.decision_logs())


class TestPoolCheckpointResume:
    def test_checkpoint_kill_restore_matches_uninterrupted(self):
        mix = mix_instance()
        requests = list(mix.requests)
        cut = len(requests) // 2

        with ProcessShardPool(
            mix.capacities, 2, "fractional", seed=5, algorithm_kwargs={"g": G}
        ) as full:
            full.submit_batch(requests)
            expected_logs = full.decision_logs()
            expected_cost = total_cost(full.summary())

        first = ProcessShardPool(
            mix.capacities, 2, "fractional", seed=5, algorithm_kwargs={"g": G}
        )
        try:
            first.submit_batch(requests[:cut])
            document = json.loads(json.dumps(first.checkpoint()))
        finally:
            first.terminate()  # kill without drain: restore starts fresh processes

        assert document["kind"] == POOL_CHECKPOINT_KIND
        resumed = ProcessShardPool.restore(document)
        try:
            assert resumed.num_processed == cut
            resumed.submit_batch(requests[cut:])
            resumed_logs = resumed.decision_logs()
            assert abs(total_cost(resumed.summary()) - expected_cost) <= 1e-9
        finally:
            resumed.close()
        for shard in expected_logs:
            assert_logs_equal(expected_logs[shard], resumed_logs[shard])

    @pytest.mark.parametrize(
        "write, read",
        [("inline", None), (None, "inline")],
        ids=["inline-to-process", "process-to-inline"],
    )
    def test_checkpoint_resumes_under_the_other_transport(self, write, read):
        # The transport is not state: the same document resumes either way,
        # and the logs equal the uninterrupted run's.
        mix = mix_instance()
        requests = list(mix.requests)
        cut = len(requests) // 3
        with ProcessShardPool(
            mix.capacities, 2, "randomized", seed=9, start_method=write
        ) as full:
            full.submit_stream(iter(requests), batch_size=5)
            expected = full.decision_logs()
        with ProcessShardPool(
            mix.capacities, 2, "randomized", seed=9, start_method=write
        ) as first:
            first.submit_stream(iter(requests[:cut]), batch_size=5)
            document = json.loads(json.dumps(first.checkpoint()))
        with ProcessShardPool.restore(document, start_method=read) as resumed:
            assert (resumed.start_method == "inline") == (read == "inline")
            assert resumed.num_processed == cut
            resumed.submit_stream(iter(requests[cut:]), batch_size=5)
            assert_shard_logs_equal(expected, resumed.decision_logs())


@TRANSPORTS
class TestPartitionValidation:
    @staticmethod
    def checkpoint(start_method):
        mix = mix_instance()
        with ProcessShardPool(
            mix.capacities, 2, "fractional", seed=1, start_method=start_method
        ) as pool:
            pool.submit_batch(list(mix.requests))
            return json.loads(json.dumps(pool.checkpoint()))

    @pytest.mark.parametrize("num_shards", [3, 4])
    def test_restore_rejects_shard_count_mismatch(self, start_method, num_shards):
        document = self.checkpoint(start_method)
        document["num_shards"] = num_shards
        with pytest.raises(CheckpointFormatError) as excinfo:
            ProcessShardPool.restore(document, start_method=start_method)
        assert "num_shards" in str(excinfo.value)

    def test_restore_rejects_swapped_shards(self, start_method):
        document = self.checkpoint(start_method)
        document["shards"] = list(reversed(document["shards"]))
        with pytest.raises(CheckpointFormatError):
            ProcessShardPool.restore(document, start_method=start_method)

    def test_validate_shard_partition_passes_valid_checkpoint(self, start_method):
        document = self.checkpoint(start_method)
        validate_shard_partition(document["shards"], 2)


class TestRunSpecSharding:
    def test_workers_spec_matches_plain_and_router(self):
        runner = Runner()
        base = dict(
            scenario="adversarial_mix", algorithm="fractional",
            mode="streaming", trials=1, seed=3, algorithm_params={"g": G},
        )
        plain = runner.run(RunSpec(**base)).rows[0].online_cost
        routed = runner.run(RunSpec(**base, shards=2)).rows[0].online_cost
        pooled = runner.run(RunSpec(**base, shards=2, workers=2)).rows[0].online_cost
        assert abs(routed - pooled) <= 1e-9 * max(abs(routed), 1.0)
        assert abs(plain - pooled) <= 1e-9 * max(abs(plain), 1.0)

    def test_spec_normalizes_workers_to_shards(self):
        spec = RunSpec(
            scenario="adversarial_mix", algorithm="fractional",
            mode="streaming", workers=2,
        )
        assert spec.shards == 2
