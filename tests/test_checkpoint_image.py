"""The columnar checkpoint image (``CHECKPOINT_SCHEMA`` 4) and its durable write.

Resume equivalence lives in ``tests/test_streaming.py``.  These tests pin the
image itself: its envelope carries no diagnostics mode; re-exporting a
restored session gives the same document, on either backend, so restoring
drops nothing; the sparsely stored rows (arrivals the overload guard
rejected, tags, forced acceptances) survive; and ``dump_checkpoint`` fsyncs
the data before it renames the file into place.
"""

import json
import os

import pytest

from repro.engine.shards import INLINE, ProcessShardPool
from repro.engine.streaming import StreamingSession
from repro.instances.request import Request
from repro.instances.serialize import dump_checkpoint, load_checkpoint
from repro.workloads.admission_traffic import bursty_workload
from repro.workloads.costs import uniform_costs

ALGORITHMS = ("fractional", "doubling-fractional", "randomized", "doubling")
OTHER_BACKEND = {"python": "numpy", "numpy": "python"}


def make_instance():
    return bursty_workload(
        num_edges=10,
        num_requests=48,
        capacity=2,
        num_hot_edges=3,
        cost_sampler=lambda count, rng: uniform_costs(count, 1.0, 6.0, rng),
        random_state=3,
    )


def through_json(document):
    return json.loads(json.dumps(document))


def without_backend(value):
    """``value`` with every ``backend`` key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: without_backend(v) for k, v in value.items() if k != "backend"}
    if isinstance(value, list):
        return [without_backend(v) for v in value]
    return value


def served_session(algorithm, backend):
    instance = make_instance()
    session = StreamingSession(instance.capacities, algorithm=algorithm, backend=backend, seed=4)
    session.submit_stream(iter(instance.requests), batch_size=7)
    return session


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestImageRoundTrip:
    def test_restored_image_reexports_identically(self, algorithm, backend):
        document = through_json(served_session(algorithm, backend).checkpoint())
        assert StreamingSession.restore(document).checkpoint() == document

    def test_other_backend_reexports_identically(self, algorithm, backend):
        document = through_json(served_session(algorithm, backend).checkpoint())
        other = OTHER_BACKEND[backend]
        restored = StreamingSession.restore(document, backend=other).checkpoint()
        assert restored["backend"] == other
        assert without_backend(restored) == without_backend(document)

    def test_envelope_is_schema_4_without_record(self, algorithm, backend):
        document = served_session(algorithm, backend).checkpoint()
        assert document["schema"] == 4
        assert "record" not in document


def test_pool_envelope_is_schema_4_without_record():
    instance = make_instance()
    with ProcessShardPool(instance.capacities, 2, "randomized", seed=4, start_method=INLINE) as pool:
        pool.submit_batch(list(instance.requests))
        document = pool.checkpoint()
    shards = [shard for shard in document["shards"] if shard is not None]
    assert shards
    for envelope in (document, *shards):
        assert envelope["schema"] == 4
        assert "record" not in envelope


class TestSparseRows:
    """Rows outside the shadow, tags and forced acceptances round-trip too."""

    CAPACITIES = {"a": 1, "b": 1, "c": 1}

    def requests(self):
        out = []
        for i in range(30):
            edges = frozenset(["a", "b"] if i % 3 else ["a"])
            tag = "reserve" if i % 7 == 3 else None
            out.append(Request(i, edges, 1.0 + (i % 5) / 4, tag=tag))
        return out

    def session(self):
        return StreamingSession(
            self.CAPACITIES,
            algorithm="randomized",
            backend="numpy",
            seed=8,
            algorithm_kwargs={"overload_guard": True, "force_accept_tags": ["reserve"]},
        )

    def test_guard_rows_tags_and_forced_rows_resume_identically(self):
        requests = self.requests()
        full = self.session()
        full.submit_stream(iter(requests), batch_size=4)

        first = self.session()
        first.submit_stream(iter(requests[:17]), batch_size=4)
        document = through_json(first.checkpoint())
        state = document["algorithm_state"]
        assert state["requests"]["unshadowed"], "the overload guard rejected no arrival"
        assert state["requests"]["tags"], "no tagged arrival before the cut"
        assert "f" in state["shadow"]["classes"], "no forced acceptance before the cut"
        resumed = StreamingSession.restore(document)
        assert resumed.checkpoint() == document
        # Ids, edges, costs and tags: every request comes back whole.
        assert resumed.algorithm._requests_by_id == first.algorithm._requests_by_id
        resumed.submit_stream(iter(requests[17:]), batch_size=4)
        assert resumed.decision_log() == full.decision_log()


class TestDurableWrite:
    def test_temp_file_is_fsynced_before_the_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def spy_replace(src, dst, *args, **kwargs):
            events.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        document = served_session("fractional", "python").checkpoint()
        path = dump_checkpoint(document, tmp_path / "ck.json")

        data_inode = os.stat(path).st_ino
        kinds = [kind for kind, _ in events]
        assert ("fsync", data_inode) in events, "the checkpoint data was never fsynced"
        assert ("replace", data_inode) in events
        assert kinds.index("replace") > events.index(("fsync", data_inode))
        # The directory entry the rename wrote is fsynced after the rename.
        assert events[-1] == ("fsync", os.stat(tmp_path).st_ino)
        assert load_checkpoint(path)["num_processed"] == 48
