"""The asyncio front door: a long-lived network admission service.

:class:`AdmissionService` binds a TCP socket, speaks the versioned JSON wire
schema (:mod:`repro.service.wire`) and micro-batches admission requests from
every connection into one :class:`~repro.service.runtime.ServingRun` — the
same serving core the replay loop drives, so the decision log gets the same
entries, the same ``sort_keys`` JSON and the same durability order — which
is what makes the network path byte-identical to an in-process run over the
same arrival order (ARCHITECTURE.md invariant 10).

Request flow
    Every connection gets a reader coroutine that decodes frames and feeds
    one global FIFO queue; a single dispatcher coroutine pulls from it,
    coalescing consecutive submits (up to ``batch`` arrivals, waiting at
    most ``batch_wait_ms`` for stragglers) into one ``submit_batch`` call.
    One queue + one dispatcher means one total order of arrivals — the
    order the decision log attests to.

Graceful drain
    SIGTERM (or :meth:`AdmissionService.request_shutdown`) stops accepting
    connections, rejects frames that arrive after the cut and flushes
    everything already queued through the engine; then
    :meth:`~repro.service.runtime.ServingRun.finish` fsyncs the decision
    log, writes the checkpoint (the backend's own kind — a pool writes
    ``shard-pool-checkpoint``), stops a pool's workers and reports, and the
    service exits 0.  ``--resume`` then restores a byte-identical decision
    log.

Health
    A heartbeat task polls the backend's ``shard_stats()`` through a
    :class:`~repro.service.health.HealthMonitor`; state transitions are
    printed, and the current snapshot rides on every ``stats`` reply.
"""

from __future__ import annotations

import asyncio
import io
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.service.config import ServiceConfig, ServiceConfigError
from repro.service.health import HealthMonitor
from repro.service.runtime import ServingRun
from repro.service.wire import (
    CLIENT_OPS,
    MAX_FRAME_BYTES,
    SERVICE_KIND,
    WireFormatError,
    decode_frame,
    encode_frame,
)

__all__ = ["AdmissionService", "ServiceThread"]

#: Seconds between health-monitor observations.
HEARTBEAT_SECONDS = 1.0

#: Seconds without progress (with work pending) before a shard is ``stalled``.
STALL_AFTER_SECONDS = 5.0

#: Queue sentinel: everything enqueued before it is flushed, then the
#: dispatcher exits.
_SHUTDOWN = object()


@dataclass
class _WorkItem:
    """One decoded client frame waiting for the dispatcher."""

    kind: str  # submit | submit_batch | stats | drain
    seq: Any
    writer: asyncio.StreamWriter
    requests: List[Any] = field(default_factory=list)


class AdmissionService:
    """The network admission service for one :class:`ServiceConfig`.

    ``run()`` blocks until shutdown and returns the exit code; it builds the
    serving backend (resuming from the checkpoint when configured), binds
    ``--listen``, prints ``service listening on HOST:PORT`` (flushed — with
    port 0 this line is how callers discover the bound port), and serves
    until SIGTERM.  Use :class:`ServiceThread` to embed the service in a
    test or benchmark process.
    """

    def __init__(self, config: ServiceConfig, *, out=None):
        if not config.is_network:
            raise ServiceConfigError(
                "AdmissionService needs a network config (--listen HOST:PORT); "
                "use serve_replay for trace replay"
            )
        self.config = config
        self._out = out if out is not None else sys.stdout
        self.address: Optional[Tuple[str, int]] = None
        self.ready = threading.Event()
        self.exit_code: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._sigterm = False
        self._draining = False
        self._run: Optional[ServingRun] = None
        self._monitor: Optional[HealthMonitor] = None
        self._writers: set = set()

    # -- lifecycle ----------------------------------------------------------------
    def run(self, *, install_signals: bool = True) -> int:
        """Serve until shutdown; returns the process exit code."""
        loop = asyncio.new_event_loop()
        try:
            self.exit_code = loop.run_until_complete(self._main(loop, install_signals))
        finally:
            # If startup failed before ready was set, unblock ServiceThread.
            self.ready.set()
            loop.close()
        return self.exit_code

    def request_shutdown(self) -> None:
        """Trigger a graceful drain from any thread (idempotent)."""
        loop = self._loop
        if loop is None or self._shutdown_event is None:
            raise RuntimeError("service is not running")
        loop.call_soon_threadsafe(self._shutdown_event.set)

    def _print(self, message: str) -> None:
        print(message, file=self._out)
        if hasattr(self._out, "flush"):
            self._out.flush()

    async def _main(self, loop: asyncio.AbstractEventLoop, install_signals: bool) -> int:
        self._loop = loop
        self._shutdown_event = asyncio.Event()
        self._queue: asyncio.Queue = asyncio.Queue()

        config = self.config
        self._run = ServingRun(config)
        self._monitor = HealthMonitor(
            self._run.backend.shard_stats, stall_after=STALL_AFTER_SECONDS
        )

        if install_signals:
            def _on_sigterm() -> None:  # pragma: no cover - signal timing
                self._sigterm = True
                self._shutdown_event.set()

            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)

        host, port = config.address
        try:
            server = await asyncio.start_server(
                self._on_connection, host, port, limit=MAX_FRAME_BYTES
            )
        except OSError as err:
            # A busy or unbindable address is a start-up error like a bad
            # flag: the CLI prints it and exits 2.
            if install_signals:
                loop.remove_signal_handler(signal.SIGTERM)
            self._run.close()
            raise ServiceConfigError(f"cannot listen on {host}:{port}: {err}") from err
        bound = server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self.ready.set()
        # Flushed immediately: with --listen HOST:0 this line is the only
        # way a parent process learns the ephemeral port.
        self._print(f"service listening on {self.address[0]}:{self.address[1]}")

        dispatcher = asyncio.ensure_future(self._dispatch())
        heartbeat = asyncio.ensure_future(self._heartbeat())
        try:
            await self._shutdown_event.wait()
        finally:
            # Stop accepting, cut off new frames, then flush everything that
            # made it into the queue before the cut.
            self._draining = True
            server.close()
            await server.wait_closed()
            self._queue.put_nowait(_SHUTDOWN)
            await dispatcher
            heartbeat.cancel()
            try:
                await heartbeat
            except asyncio.CancelledError:
                pass
            if install_signals:
                loop.remove_signal_handler(signal.SIGTERM)
            for writer in list(self._writers):
                writer.close()
            self._run.finish(
                self._out, interrupted="in-flight requests" if self._sigterm else None
            )
        return 0

    # -- connection handling ------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            self._send(
                writer,
                {
                    "op": "welcome",
                    "service": SERVICE_KIND,
                    "name": self.config.name,
                    "processed": self._run.backend.num_processed,
                    "decisions": self._run.backend.num_decisions,
                },
            )
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._send(
                        writer,
                        {"op": "error", "seq": None,
                         "error": f"frame exceeds {MAX_FRAME_BYTES} bytes"},
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except WireFormatError as err:
                    # Undecodable or wrong-version frames poison the whole
                    # stream — report and hang up rather than guess.
                    self._send(writer, {"op": "error", "seq": None, "error": str(err)})
                    break
                self._handle_frame(frame, writer)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - peer races
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already-dead transport
                pass

    def _handle_frame(self, frame: Dict[str, Any], writer: asyncio.StreamWriter) -> None:
        from repro.instances.serialize import request_from_state

        op = frame["op"]
        seq = frame.get("seq")
        if op not in CLIENT_OPS:
            self._send(
                writer,
                {"op": "error", "seq": seq,
                 "error": f"unknown op {op!r}; client ops: {', '.join(CLIENT_OPS)}"},
            )
            return
        if self._draining:
            self._send(
                writer,
                {"op": "error", "seq": seq,
                 "error": "service is draining; resubmit after it restarts"},
            )
            return
        try:
            if op == "submit":
                requests = [request_from_state(frame["request"])]
            elif op == "submit_batch":
                payload = frame.get("requests")
                if not isinstance(payload, list):
                    raise ValueError("submit_batch needs a 'requests' list")
                requests = [request_from_state(item) for item in payload]
            else:
                requests = []
        except (KeyError, TypeError, ValueError) as err:
            self._send(writer, {"op": "error", "seq": seq, "error": f"bad {op} frame: {err}"})
            return
        self._queue.put_nowait(_WorkItem(kind=op, seq=seq, writer=writer, requests=requests))

    def _send(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        if writer.is_closing():
            return
        writer.write(encode_frame(frame))

    # -- the dispatcher -----------------------------------------------------------
    async def _dispatch(self) -> None:
        """Single consumer of the work queue: coalesce, submit, reply."""
        loop = self._loop
        assert loop is not None
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            if item.kind not in ("submit", "submit_batch"):
                await self._control(item)
                continue
            # Coalesce consecutive submits into one engine batch: wait at
            # most batch_wait_ms for stragglers, never beyond `batch`
            # arrivals, and stop at the first control frame (it must observe
            # the submits before it — FIFO semantics).
            items = [item]
            total = len(item.requests)
            deadline = loop.time() + self.config.batch_wait_ms / 1000.0
            control: Optional[_WorkItem] = None
            shutdown = False
            while total < self.config.batch:
                remaining = deadline - loop.time()
                try:
                    if remaining <= 0:
                        nxt = self._queue.get_nowait()
                    else:
                        nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except (asyncio.QueueEmpty, asyncio.TimeoutError):
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True
                    break
                if nxt.kind not in ("submit", "submit_batch"):
                    control = nxt
                    break
                items.append(nxt)
                total += len(nxt.requests)
            await self._flush(items)
            if control is not None:
                await self._control(control)
            if shutdown:
                return

    async def _flush(self, items: List[_WorkItem]) -> None:
        """One engine submit_batch for a coalesced run of submit frames."""
        requests = [request for item in items for request in item.requests]
        try:
            entries = self._run.submit(requests)
        except (ValueError, RuntimeError) as err:
            # Reject the whole coalesced batch (duplicate ids, spanning
            # shards, ...): nothing was logged, every frame learns why.
            for item in items:
                self._send(item.writer, {"op": "error", "seq": item.seq, "error": str(err)})
            await self._drain_writers(items)
            return
        processed = self._run.backend.num_processed
        for item, own in zip(items, self._split_entries(entries, items)):
            frame: Dict[str, Any] = {
                "op": "result",
                "seq": item.seq,
                "entries": own,
                "processed": processed,
            }
            if item.kind == "submit":
                rid = item.requests[0].request_id
                frame["entry"] = next(
                    (e for e in own if e.get("id") == rid and e.get("event") != "preempt"),
                    None,
                )
            self._send(item.writer, frame)
        await self._drain_writers(items)
        # After the replies: their latency never includes a checkpoint write.
        self._run.checkpoint_if_due()

    @staticmethod
    def _split_entries(
        entries: List[Dict[str, Any]], items: List[_WorkItem]
    ) -> List[List[Dict[str, Any]]]:
        """Attribute the batch's decision entries back to their frames.

        Entries arrive in arrival order; each frame owns as many
        arrival-decision entries (``event != "preempt"``) as it submitted
        requests, and preemption entries attach to the frame being consumed
        when they appear (positional attribution — the server log is the
        authoritative total order).
        """
        split: List[List[Dict[str, Any]]] = [[] for _ in items]
        index = 0
        arrivals_seen = 0
        for entry in entries:
            if entry.get("event") != "preempt":
                while index < len(items) - 1 and arrivals_seen >= len(items[index].requests):
                    index += 1
                    arrivals_seen = 0
                arrivals_seen += 1
            split[min(index, len(items) - 1)].append(entry)
        return split

    @staticmethod
    async def _drain_writers(items: List[_WorkItem]) -> None:
        """Apply socket flow control once per distinct reply writer."""
        seen = set()
        for item in items:
            writer = item.writer
            if id(writer) in seen or writer.is_closing():
                continue
            seen.add(id(writer))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _control(self, item: _WorkItem) -> None:
        """Handle a stats/drain frame (already ordered after prior submits)."""
        backend = self._run.backend
        if item.kind == "stats":
            assert self._monitor is not None
            self._monitor.observe()
            frame = {
                "op": "stats",
                "seq": item.seq,
                "processed": backend.num_processed,
                "decisions": backend.num_decisions,
                "health": self._monitor.snapshot(),
                "summary": backend.summary(),
            }
        else:  # drain: durability barrier for everything submitted before it
            backend.drain()
            checkpointed = self._run.save()
            frame = {
                "op": "drained",
                "seq": item.seq,
                "processed": backend.num_processed,
                "decisions": backend.num_decisions,
                "checkpointed": checkpointed,
            }
        self._send(item.writer, frame)
        await self._drain_writers([item])

    # -- health -------------------------------------------------------------------
    async def _heartbeat(self) -> None:
        """Periodic shard-health observation; report state transitions."""
        assert self._monitor is not None and self._shutdown_event is not None
        last_state = "healthy"
        while not self._shutdown_event.is_set():
            try:
                await asyncio.wait_for(
                    self._shutdown_event.wait(), timeout=HEARTBEAT_SECONDS
                )
                return
            except asyncio.TimeoutError:
                pass
            snapshot = self._monitor.observe()
            state = snapshot["state"]
            if state != last_state:
                detail = "; ".join(
                    f"shard {shard}: {info['state']} (pending {info['pending']}, "
                    f"no progress for {info['since_progress']}s)"
                    for shard, info in sorted(self._monitor.unhealthy_shards().items())
                ) or "all shards healthy"
                self._print(f"health: {state} — {detail}")
                last_state = state


class ServiceThread:
    """Run an :class:`AdmissionService` on a background thread (tests, benches).

    Context-manager protocol: ``__enter__`` starts the service and blocks
    until the socket is bound (``address`` is then available), ``__exit__``
    requests a graceful drain and joins the thread.  Signal handlers are
    never installed — the embedding process keeps its own.
    """

    def __init__(self, config: ServiceConfig, *, out=None):
        self.service = AdmissionService(config, out=out if out is not None else io.StringIO())
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        address = self.service.address
        if address is None:
            raise RuntimeError("service thread is not started")
        return address

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self.service.run,
            kwargs={"install_signals": False},
            name="admission-service",
            daemon=True,
        )
        self._thread.start()
        self.service.ready.wait(timeout=30.0)
        if self.service.address is None:
            self._thread.join(timeout=5.0)
            raise RuntimeError("admission service failed to start (see its output)")
        return self

    def stop(self) -> int:
        if self._thread is None:
            raise RuntimeError("service thread is not started")
        self.service.request_shutdown()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("admission service did not drain within 60s")
        return int(self.service.exit_code or 0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

