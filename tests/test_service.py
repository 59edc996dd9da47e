"""Tests for the network admission service (:mod:`repro.service`).

Four layers, mirroring the package:

* config — ``ServiceConfig`` validates eagerly with exact, actionable
  messages (the ``RunSpec`` contract applied to the service);
* wire — the versioned frame codec strictly rejects what it cannot speak;
* health — the monitor classifies shards from ``shard_stats()`` snapshots;
* end to end — an embedded :class:`~repro.service.ServiceThread` (and, for
  the SIGTERM path, a real ``repro serve --listen`` subprocess) produces a
  decision log byte-identical to the in-process engine over the same
  arrivals: the network path never changes a number (ARCHITECTURE.md
  invariant 10).
"""

from __future__ import annotations

import asyncio
import io
import json
import signal
import socket
import subprocess
import sys

import pytest

from repro.engine.registry import UnknownKeyError
from repro.engine.streaming import StreamingSession
from repro.instances.serialize import load_admission_trace, load_checkpoint, request_to_state
from repro.scenarios.trace import record_trace, stream_trace
from repro.service import (
    SERVICE_SCHEMA,
    AdmissionClient,
    HealthMonitor,
    ServiceConfig,
    ServiceConfigError,
    ServiceError,
    ServiceThread,
    WireFormatError,
    decode_frame,
    encode_frame,
    run_loadtest,
)
from repro.service.config import parse_address
from repro.service.loadtest import percentile
from repro.workloads.admission_traffic import adversarial_mix_workload, bursty_workload

BACKENDS = ["python", "numpy"]


@pytest.fixture
def trace_path(tmp_path):
    """A recorded namespaced adversarial trace (69 arrivals, 8 edges)."""
    path = tmp_path / "trace.jsonl"
    record_trace(adversarial_mix_workload(num_edges=8, capacity=2, random_state=7), path)
    return path


def network_config(trace_path, **overrides):
    defaults = dict(
        trace=trace_path, listen="127.0.0.1:0", algorithm="fractional", seed=5
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceConfig:
    def test_defaults_normalize(self, trace_path):
        config = ServiceConfig(trace=trace_path)
        assert config.trace == str(trace_path)
        assert not config.is_network
        assert config.num_shards == 1
        assert config.name == f"serve:{trace_path.stem}"

    def test_workers_normalize_to_shards(self, trace_path):
        assert ServiceConfig(trace=trace_path, workers=3).num_shards == 3
        assert ServiceConfig(trace=trace_path, shards=4).num_shards == 4

    def test_missing_trace(self, tmp_path):
        with pytest.raises(ServiceConfigError, match="trace file not found"):
            ServiceConfig(trace=tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(batch=0), "--batch must be >= 1"),
            (dict(seed=-1), "--seed must be >= 0, got -1"),
            (dict(batch_wait_ms=-1.0), "--batch-wait-ms must be >= 0, got -1.0"),
            (dict(resume=True), "--resume requires --checkpoint"),
            (dict(checkpoint_every=5), "--checkpoint-every requires --checkpoint"),
            (dict(shards=0), "--shards must be >= 1"),
            (dict(workers=0), "--workers must be >= 1"),
            (
                dict(shards=2, workers=3),
                "a worker pool runs one shard per worker; got --shards 2 with --workers 3",
            ),
            (
                dict(listen="127.0.0.1:0", max_arrivals=10),
                "--max-arrivals applies to trace replay",
            ),
            (dict(listen="no-port"), "--listen must be HOST:PORT, got 'no-port'"),
        ],
    )
    def test_exact_error_messages(self, trace_path, kwargs, message):
        with pytest.raises(ServiceConfigError) as err:
            ServiceConfig(trace=trace_path, **kwargs)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "kwargs", [dict(algorithm="nope"), dict(backend="nope")]
    )
    def test_registry_keys_validate_eagerly(self, trace_path, kwargs):
        # Registry lookups fail with the known-key listing, not at first use.
        with pytest.raises(UnknownKeyError, match="nope"):
            ServiceConfig(trace=trace_path, **kwargs)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7411") == ("127.0.0.1", 7411)
        assert parse_address("[::1]:0") == ("[::1]", 0)
        with pytest.raises(ServiceConfigError, match="--connect must be HOST:PORT"):
            parse_address("127.0.0.1:x", flag="--connect")
        with pytest.raises(ServiceConfigError, match="port must be 0..65535"):
            parse_address("h:70000")

    def test_busy_listen_port_is_exit_2_and_closes_the_run(
        self, trace_path, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.service.runtime import ServingRun

        closed = []
        real_close = ServingRun.close

        def close(run):
            closed.append(run)
            real_close(run)

        monkeypatch.setattr(ServingRun, "close", close)
        out = io.StringIO()
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            host, port = busy.getsockname()
            code = main(
                ["serve", "--trace", str(trace_path), "--listen", f"{host}:{port}",
                 "--log", str(tmp_path / "busy.jsonl")],
                out=out,
            )
        assert code == 2
        assert out.getvalue().startswith(f"error: cannot listen on {host}:{port}: ")
        assert len(closed) == 1


class TestWireSchema:
    def test_roundtrip_stamps_version(self):
        frame = decode_frame(encode_frame({"op": "stats", "seq": 3}))
        assert frame == {"v": SERVICE_SCHEMA, "op": "stats", "seq": 3}

    def test_rejects_unknown_version(self):
        data = json.dumps({"v": SERVICE_SCHEMA + 1, "op": "submit"})
        with pytest.raises(WireFormatError, match="unsupported service schema 2"):
            decode_frame(data)

    def test_rejects_missing_version(self):
        with pytest.raises(WireFormatError, match="unsupported service schema None"):
            decode_frame(json.dumps({"op": "submit"}))

    def test_rejects_invalid_json(self):
        with pytest.raises(WireFormatError, match="invalid JSON frame"):
            decode_frame(b"{nope}\n")

    def test_rejects_non_object(self):
        with pytest.raises(WireFormatError, match="frame must be a JSON object, got list"):
            decode_frame(b"[1, 2]\n")

    def test_rejects_missing_op(self):
        with pytest.raises(WireFormatError, match="missing its 'op' field"):
            decode_frame(json.dumps({"v": SERVICE_SCHEMA, "seq": 1}))


class TestHealthMonitor:
    def test_states_progress_from_healthy_to_stalled_to_dead(self):
        stats = {0: {"pid": 11, "alive": True, "pending": 0, "processed": 0, "decisions": 0}}
        clock = iter([0.0, 1.0, 7.0, 8.0]).__next__
        monitor = HealthMonitor(lambda: stats, stall_after=5.0, clock=clock)
        assert monitor.observe()["state"] == "healthy"          # t=0: idle
        stats[0].update(pending=3)
        assert monitor.observe()["state"] == "healthy"          # t=1: lag < stall_after
        assert monitor.observe()["state"] == "stalled"          # t=7: no progress for 6s
        assert monitor.unhealthy_shards()[0]["pending"] == 3
        stats[0].update(alive=False)
        assert monitor.observe()["state"] == "dead"             # t=8: worker gone
        assert monitor.state == "dead"

    def test_progress_resets_the_stall_clock(self):
        stats = {0: {"alive": True, "pending": 1, "processed": 0, "decisions": 0}}
        clock = iter([0.0, 6.0, 12.0]).__next__
        monitor = HealthMonitor(lambda: stats, stall_after=5.0, clock=clock)
        monitor.observe()
        stats[0].update(processed=10)
        assert monitor.observe()["state"] == "healthy"          # t=6: progressed
        assert monitor.observe()["state"] == "stalled"          # t=12: wedged again

    def test_every_backend_exports_shard_stats(self, trace_path):
        stream = stream_trace(trace_path)
        session = StreamingSession(stream.capacities, algorithm="fractional")
        stream.close()
        stats = session.shard_stats()
        assert set(stats) == {0}
        assert stats[0]["alive"] is True and stats[0]["processed"] == 0
        assert HealthMonitor(session.shard_stats).observe()["state"] == "healthy"


@pytest.mark.parametrize("backend", BACKENDS)
class TestNetworkEqualsInProcess:
    def test_submit_batch_entries_and_log_match_engine(self, trace_path, tmp_path, backend):
        """The wire path returns exactly the engine's entries, in order."""
        requests = list(load_admission_trace(str(trace_path)).requests)
        stream = stream_trace(trace_path)
        reference = StreamingSession(
            stream.capacities, algorithm="fractional", backend=backend, seed=5
        )
        stream.close()
        expected = []
        for lo in range(0, len(requests), 7):
            expected.extend(reference.submit_batch(requests[lo : lo + 7]))

        log = tmp_path / "decisions.jsonl"
        config = network_config(trace_path, backend=backend, log=log)
        got = []
        with ServiceThread(config) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                assert client.welcome["name"] == f"serve:{trace_path.stem}"
                for lo in range(0, len(requests), 7):
                    got.extend(client.submit_batch(requests[lo : lo + 7]))
                stats = client.stats()
        assert got == expected
        assert stats["processed"] == len(requests)
        assert stats["summary"]["fractional_cost"] == pytest.approx(
            reference.summary()["fractional_cost"]
        )
        assert stats["health"]["state"] == "healthy"
        # The --log is flushed on shutdown and matches the engine log exactly.
        logged = log.read_text().splitlines()
        assert logged == [json.dumps(e, sort_keys=True) for e in expected]

    def test_single_submit_returns_the_arrival_entry(self, trace_path, backend):
        requests = list(load_admission_trace(str(trace_path)).requests)
        config = network_config(trace_path, backend=backend)
        with ServiceThread(config) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                entry = client.submit(requests[0])
                assert entry["id"] == requests[0].request_id
                assert entry["event"] != "preempt"
                assert client.processed == 1
                assert client.last_entries[-1] == entry or entry in client.last_entries


class TestProtocolErrors:
    def test_unknown_op_errors_but_keeps_connection(self, trace_path):
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                client._fh.write(encode_frame({"op": "explode", "seq": 99}))
                client._fh.flush()
                reply = client._read_frame()
                assert reply["op"] == "error"
                assert "unknown op 'explode'" in reply["error"]
                # The connection survives a recoverable error.
                assert client.stats()["processed"] == 0

    def test_wrong_version_frame_is_rejected_and_closes(self, trace_path):
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                decode_frame(fh.readline())  # welcome
                fh.write((json.dumps({"v": 99, "op": "stats", "seq": 1}) + "\n").encode())
                fh.flush()
                reply = decode_frame(fh.readline())
                assert reply["op"] == "error"
                assert "unsupported service schema 99" in reply["error"]
                assert fh.readline() == b""  # hung up: the stream is poisoned

    def test_malformed_json_is_rejected_and_closes(self, trace_path):
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                decode_frame(fh.readline())  # welcome
                fh.write(b"{this is not json\n")
                fh.flush()
                reply = decode_frame(fh.readline())
                assert reply["op"] == "error" and "invalid JSON frame" in reply["error"]
                assert fh.readline() == b""

    def test_bad_request_payload_is_reported_per_frame(self, trace_path):
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                with pytest.raises(ServiceError, match="bad submit frame"):
                    client._call({"op": "submit", "request": {"id": "r1"}})
                with pytest.raises(ServiceError, match="request must be a JSON object"):
                    client._call({"op": "submit", "request": [1, 2]})
                # Recoverable: the next well-formed call succeeds.
                assert client.stats()["decisions"] == 0

    def test_client_rejects_non_service_peer(self, monkeypatch):
        made = []
        create_connection = socket.create_connection

        def connect(*args, **kwargs):
            made.append(create_connection(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(socket, "create_connection", connect)
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            host, port = server.getsockname()

            import threading

            def peer():
                conn, _ = server.accept()
                conn.sendall(b'{"hello": "world"}\n')
                conn.close()

            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            client = AdmissionClient(host, port, timeout=10)
            with pytest.raises(ServiceError, match="malformed frame from the service"):
                client.connect()
            thread.join(timeout=5)
        # The failed handshake closed the client's own socket.
        assert [sock.fileno() for sock in made] == [-1]


class TestDrainAndStats:
    def test_drain_is_a_durability_barrier(self, trace_path, tmp_path):
        requests = list(load_admission_trace(str(trace_path)).requests)
        log = tmp_path / "log.jsonl"
        checkpoint = tmp_path / "ck.json"
        config = network_config(trace_path, log=log, checkpoint=checkpoint)
        with ServiceThread(config) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                client.submit_batch(requests[:10])
                reply = client.drain()
                assert reply["op"] == "drained"
                assert reply["processed"] == 10
                assert reply["checkpointed"] is True
                # Both artifacts are durable *before* the reply arrives.
                assert checkpoint.exists()
                assert len(log.read_text().splitlines()) == reply["decisions"]

    def test_drain_without_checkpoint_flushes_the_log(self, trace_path, tmp_path):
        requests = list(load_admission_trace(str(trace_path)).requests)
        log = tmp_path / "log.jsonl"
        with ServiceThread(network_config(trace_path, log=log)) as thread:
            host, port = thread.address
            with AdmissionClient(host, port) as client:
                client.submit_batch(requests[:5])
                reply = client.drain()
                assert reply["checkpointed"] is False
                assert len(log.read_text().splitlines()) == reply["decisions"]

    def test_drain_checkpoint_restarts_the_cadence(self, trace_path, tmp_path):
        # One --checkpoint-every counter: the checkpoint a drain writes
        # restarts it, so one arrival later the cadence does not fire again.
        requests = list(load_admission_trace(str(trace_path)).requests)
        checkpoint = tmp_path / "ck.json"
        config = network_config(trace_path, checkpoint=checkpoint, checkpoint_every=10)
        with ServiceThread(config) as thread:
            with AdmissionClient(*thread.address) as client:
                client.submit_batch(requests[:9])
                assert client.drain()["checkpointed"] is True
                client.submit_batch(requests[9:10])
                client.stats()  # queued behind that flush and its cadence check
                assert load_checkpoint(checkpoint, expected_kind=None)["num_processed"] == 9


def _submit_frame(request, seq):
    return encode_frame({"op": "submit", "seq": seq, "request": request_to_state(request)})


def _read_replies(sock, count):
    """``count`` reply frames from a raw socket whose welcome frame was read."""
    fh = sock.makefile("rb")
    try:
        return [decode_frame(fh.readline()) for _ in range(count)]
    finally:
        fh.close()


def _record_writes(monkeypatch, op):
    """Record every server write holding ``op`` frames as (client address, frames).

    The server's writer for a connection reports the client's socket name as
    its ``peername``, so a test can match writes to its own sockets.
    """
    writes = []
    real_write = asyncio.StreamWriter.write
    marker = f'"op": "{op}"'.encode()

    def write(self, data):
        if marker in data:
            writes.append((self.get_extra_info("peername"), data.count(b"\n")))
        return real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    return writes


class TestPerBatchQueueAndSocketWork:
    """The dispatcher pays its queue and socket costs once per batch, not per frame.

    Queued frames are taken without a timed wait, and a batch's replies reach
    each connection in one write, in frame order; the decisions and the log
    stay those of the in-process engine.
    """

    def test_pipelined_submits_take_one_write_per_flush(self, trace_path, monkeypatch):
        requests = list(load_admission_trace(str(trace_path)).requests)[:64]
        writes = _record_writes(monkeypatch, "result")
        queue_waits = []
        real_wait_for = asyncio.wait_for

        def wait_for(awaitable, timeout):
            if getattr(awaitable, "__qualname__", "") == "Queue.get":
                queue_waits.append(timeout)
            return real_wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", wait_for)
        config = network_config(trace_path, batch=8, batch_wait_ms=50)
        with ServiceThread(config) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                assert _read_replies(sock, 1)[0]["op"] == "welcome"
                sock.sendall(b"".join(_submit_frame(r, i) for i, r in enumerate(requests)))
                replies = _read_replies(sock, len(requests))
        assert [reply["seq"] for reply in replies] == list(range(len(requests)))
        assert [reply["entry"]["id"] for reply in replies] == [r.request_id for r in requests]
        # 64 submits in batches of 8: eight writes of eight frames, or one
        # more when the frames reached the server in two reads.
        assert sum(count for _, count in writes) == len(requests)
        assert len(writes) <= 9
        assert len(queue_waits) < 8

    def test_refused_batch_answers_every_frame_in_one_write(self, trace_path, monkeypatch):
        # A repeated id fails the whole coalesced batch: each of its frames
        # gets the error, in order, in one write, and nothing is applied.
        requests = list(load_admission_trace(str(trace_path)).requests)[:8]
        frames = [_submit_frame(r, i) for i, r in enumerate(requests[:7])]
        frames.append(_submit_frame(requests[0], 7))
        writes = _record_writes(monkeypatch, "error")
        config = network_config(trace_path, batch=8, batch_wait_ms=50)
        with ServiceThread(config) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                assert _read_replies(sock, 1)[0]["op"] == "welcome"
                sock.sendall(b"".join(frames))
                errors = _read_replies(sock, len(frames))
                sock.sendall(_submit_frame(requests[7], 8))
                after = _read_replies(sock, 1)[0]
        assert [reply["op"] for reply in errors] == ["error"] * len(frames)
        assert [reply["seq"] for reply in errors] == list(range(len(frames)))
        assert {reply["error"] for reply in errors} == {
            f"duplicate request id {requests[0].request_id}"
        }
        assert [count for _, count in writes] == [len(frames)]
        assert after["op"] == "result" and after["processed"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_connections_share_flushes_and_keep_their_replies(
        self, trace_path, tmp_path, monkeypatch, backend
    ):
        requests = list(load_admission_trace(str(trace_path)).requests)
        halves = [requests[0::2], requests[1::2]]
        writes = _record_writes(monkeypatch, "result")
        log = tmp_path / "decisions.jsonl"
        # A long coalescing wait: the first batch waits for the second
        # connection's first frame, so it carries frames of both.
        config = network_config(
            trace_path, backend=backend, log=log, batch=8, batch_wait_ms=200
        )
        with ServiceThread(config) as thread:
            socks = [socket.create_connection(thread.address, timeout=30) for _ in halves]
            try:
                for sock in socks:
                    assert _read_replies(sock, 1)[0]["op"] == "welcome"
                frames = [
                    [_submit_frame(r, i) for i, r in enumerate(half)] for half in halves
                ]
                for sock, own in zip(socks, frames):
                    sock.sendall(own[0])
                for sock, own in zip(socks, frames):
                    sock.sendall(b"".join(own[1:]))
                replies = [_read_replies(sock, len(half)) for sock, half in zip(socks, halves)]
                peers = [sock.getsockname() for sock in socks]
            finally:
                for sock in socks:
                    sock.close()
        for half, own in zip(halves, replies):
            assert [reply["op"] for reply in own] == ["result"] * len(half)
            assert [reply["seq"] for reply in own] == list(range(len(half)))
            assert [reply["entry"]["id"] for reply in own] == [r.request_id for r in half]
        # `processed` is the engine's count after a flush, so two replies
        # share it exactly when they came from the same flush.
        flushes = [{reply["processed"] for reply in own} for own in replies]
        assert flushes[0] & flushes[1], "no flush carried frames of both connections"
        # One write per connection per flush, holding all of its frames.
        for peer, own, flush_ids in zip(peers, replies, flushes):
            counts = [count for writer_peer, count in writes if writer_peer == peer]
            assert len(counts) == len(flush_ids)
            assert sum(counts) == len(own)
        # The log is the in-process engine's over the log's own arrival order.
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        by_id = {r.request_id: r for r in requests}
        order = [by_id[e["id"]] for e in logged if e.get("event") != "preempt"]
        assert sorted(r.request_id for r in order) == sorted(by_id)
        stream = stream_trace(trace_path)
        reference = StreamingSession(
            stream.capacities, algorithm="fractional", backend=backend, seed=5
        )
        stream.close()
        assert logged == reference.submit_batch(order)


class TestReplaySigterm:
    """``serve_replay``'s graceful drain, driven in-process by a real SIGTERM."""

    def test_sigterm_drains_checkpoints_and_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        import io

        import repro.scenarios.trace as trace_module
        from repro.service.runtime import serve_replay

        trace = tmp_path / "t.jsonl"
        record_trace(
            bursty_workload(num_edges=16, num_requests=200, capacity=3, random_state=7), trace
        )
        total = len(load_admission_trace(str(trace)).requests)
        full_log = tmp_path / "full.jsonl"
        part_log = tmp_path / "part.jsonl"
        checkpoint = tmp_path / "ck.json"
        base = dict(trace=trace, algorithm="doubling", seed=5)
        assert serve_replay(ServiceConfig(**base, log=full_log), io.StringIO()) == 0

        k = 70  # past the first 64-arrival batch: the in-flight batch holds 6
        real_stream_trace = trace_module.stream_trace

        class SigtermAfterK:
            """The real trace stream; SIGTERM is raised once k arrivals are out."""

            def __init__(self, path):
                self._stream = real_stream_trace(path)

            def __getattr__(self, name):
                return getattr(self._stream, name)

            def __iter__(self):
                for index, request in enumerate(self._stream):
                    if index == k:
                        signal.raise_signal(signal.SIGTERM)
                    yield request

        def unhandled(signum, frame):
            raise AssertionError("serve_replay did not install its SIGTERM handler")

        monkeypatch.setattr(trace_module, "stream_trace", SigtermAfterK)
        previous = signal.signal(signal.SIGTERM, unhandled)
        try:
            out = io.StringIO()
            config = ServiceConfig(**base, checkpoint=checkpoint, log=part_log)
            assert serve_replay(config, out) == 0
        finally:
            signal.signal(signal.SIGTERM, previous)
        lines = out.getvalue().splitlines()
        assert lines[0] == (
            f"SIGTERM: drained in-flight batch and checkpointed after {k} arrivals this run"
        )
        assert lines[1] == f"served from arrival 0: processed {k} arrivals ({k} total)"

        monkeypatch.undo()
        out = io.StringIO()
        config = ServiceConfig(trace=trace, resume=True, checkpoint=checkpoint, log=part_log)
        assert serve_replay(config, out) == 0
        assert out.getvalue().splitlines()[0] == (
            f"resumed at arrival {k}: processed {total - k} arrivals ({total} total)"
        )
        assert part_log.read_bytes() == full_log.read_bytes()


class TestSigtermResumeSubprocess:
    """Real ``repro serve --listen`` processes: SIGTERM mid-stream, resume."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupted_network_log_is_byte_identical(self, trace_path, tmp_path, backend):
        from repro.service.smoke import ServerProcess, drive

        requests = list(load_admission_trace(str(trace_path)).requests)
        half = len(requests) // 2
        full_log = tmp_path / "full.jsonl"
        part_log = tmp_path / "part.jsonl"
        checkpoint = tmp_path / "ck.json"
        base = ["--trace", str(trace_path), "--listen", "127.0.0.1:0",
                "--algorithm", "fractional", "--seed", "5", "--backend", backend]

        server = ServerProcess([*base, "--log", str(full_log)])
        drive(server.wait_listening(), requests)
        server.sigterm_and_wait()
        assert any("SIGTERM: drained in-flight requests" in line for line in server.lines)

        server = ServerProcess([*base, "--log", str(part_log), "--checkpoint", str(checkpoint)])
        drive(server.wait_listening(), requests[:half])
        server.sigterm_and_wait()
        assert checkpoint.exists()

        server = ServerProcess(
            ["--trace", str(trace_path), "--listen", "127.0.0.1:0", "--resume",
             "--checkpoint", str(checkpoint), "--log", str(part_log)]
        )
        address = server.wait_listening()
        with AdmissionClient(*address) as client:
            assert client.welcome["processed"] == half
        drive(address, requests[half:])
        server.sigterm_and_wait()
        assert any(f"resumed at arrival {half}" in line for line in server.lines)

        assert part_log.read_bytes() == full_log.read_bytes()

    def test_resume_worker_count_mismatch_is_exit_2(self, trace_path, tmp_path):
        from repro.service.smoke import ServerProcess, drive

        checkpoint = tmp_path / "ck.json"
        server = ServerProcess(
            ["--trace", str(trace_path), "--listen", "127.0.0.1:0", "--workers", "2",
             "--algorithm", "fractional", "--checkpoint", str(checkpoint)]
        )
        requests = list(load_admission_trace(str(trace_path)).requests)
        drive(server.wait_listening(), requests[:10])
        server.sigterm_and_wait()
        assert server.proc.stdout.closed
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--trace", str(trace_path),
             "--listen", "127.0.0.1:0", "--resume", "--checkpoint", str(checkpoint),
             "--workers", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert (
            "error: checkpoint holds 2 shards; resume with --workers 2 "
            "(omitting --workers resumes its 2 shards in this process)"
        ) in proc.stdout


class TestLingeringServeProcesses:
    """The service smoke's leak check flags ``-m repro serve`` argvs only."""

    #: A decoy interpreter's program: say it runs, then sleep, whatever its argv.
    SLEEP = "print('up', flush=True); import time; time.sleep(60)"

    @staticmethod
    def _flagged(argv):
        from repro.service.smoke import lingering_serve_processes

        decoy = subprocess.Popen(argv, executable=sys.executable, stdout=subprocess.PIPE)
        try:
            # Once the decoy prints, its /proc cmdline is in place.
            assert decoy.stdout.readline() == b"up\n"
            return str(decoy.pid) in {pid for pid, _ in lingering_serve_processes()}
        finally:
            decoy.kill()
            decoy.wait(timeout=10)
            decoy.stdout.close()

    def test_editor_on_the_server_module_is_not_a_server(self):
        assert not self._flagged(["vim", "-c", self.SLEEP, "src/repro/service/server.py"])

    def test_repro_serve_argv_is_flagged(self):
        assert self._flagged(["python", "-c", self.SLEEP, "-m", "repro", "serve", "--listen"])


class TestLoadtest:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 25.0
        assert percentile(values, 100) == 40.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_run_loadtest_measures_a_live_service(self, trace_path):
        requests = list(load_admission_trace(str(trace_path)).requests)
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            result = run_loadtest(host, port, requests, concurrency=2, batch=4)
        assert result.errors == 0
        assert result.requests == len(requests)
        record = result.record()
        assert record["requests_per_sec"] > 0
        assert record["p99_ms"] >= record["p50_ms"] > 0

    def test_loadtest_cli_writes_measurements(self, trace_path, tmp_path):
        from repro.cli import main

        import io

        out_json = tmp_path / "loadtest.json"
        with ServiceThread(network_config(trace_path)) as thread:
            host, port = thread.address
            buffer = io.StringIO()
            code = main(
                ["loadtest", "--connect", f"{host}:{port}", "--trace", str(trace_path),
                 "--batch", "4", "--max-arrivals", "20", "--out", str(out_json)],
                out=buffer,
            )
        assert code == 0
        assert "req/s" in buffer.getvalue()
        record = json.loads(out_json.read_text())
        assert record["requests"] == 20
        assert record["errors"] == 0

    def test_loadtest_cli_rejects_bad_address(self, trace_path):
        from repro.cli import main

        import io

        buffer = io.StringIO()
        code = main(
            ["loadtest", "--connect", "nope", "--trace", str(trace_path)], out=buffer
        )
        assert code == 2
        assert "--connect must be HOST:PORT" in buffer.getvalue()
