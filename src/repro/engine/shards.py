"""The shard engine: namespace-partitioned sessions, in-process or in workers.

In the paper each request arrives with its path, and (given the same ``g``
and ``c``) the fractional weights of two requests interact only through the
edges they share.  Partitioning the *edges* is therefore exact: a request
whose edges all lie in one shard sees exactly the state it would see in one
global session.  Replicating the capacity map across workers is not — every
replica would admit against the full capacity on its own.

* Every edge belongs to a *namespace* (:func:`default_namespace`), and
  every namespace maps to shard
  ``stable_seed(namespace, "stream-shard") % num_shards``.  The mapping is
  independent of ``PYTHONHASHSEED``, so it survives process restarts.  This
  module owns that decision: :class:`ProcessShardPool` makes it once per
  edge, into a shard map, and :func:`validate_shard_partition` re-checks it
  for checkpoints.
* :class:`ProcessShardPool` runs one
  :class:`~repro.engine.streaming.StreamingSession` per non-empty shard, each
  seeded ``stable_seed(seed, "stream-shard", k)``.  The sessions run either in
  worker processes (``start_method`` ``"fork"``/``"spawn"``) or in the calling
  process (``start_method="inline"``).  Both transports run the same command
  handler behind the same pipe surface, so the parent-side protocol code is
  shared and a shard's decisions do not depend on where it runs.
* A pool checkpoint (:data:`POOL_CHECKPOINT_KIND`) is the vector of shard
  session checkpoints.  The transport is not state: a checkpoint written
  in-process resumes in worker processes and vice versa.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import traceback
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.backends import BackendSpec, resolve_backend_name
from repro.instances.request import EdgeId, Request, RequestSequence
from repro.instances.serialize import (
    CHECKPOINT_SCHEMA,
    CheckpointFormatError,
    decode_edge_id,
    dump_checkpoint,
    load_checkpoint,
    validate_checkpoint,
)
from repro.utils.rng import stable_seed

__all__ = [
    "INLINE",
    "POOL_CHECKPOINT_KIND",
    "ProcessShardPool",
    "ShardWorkerError",
    "default_namespace",
    "validate_shard_partition",
]

#: The ``kind`` field of a pool checkpoint (one session checkpoint per shard).
POOL_CHECKPOINT_KIND = "shard-pool-checkpoint"

#: The ``start_method`` that runs every shard session in the calling process.
INLINE = "inline"


class ShardWorkerError(RuntimeError):
    """A shard failed (build error, command error, or sudden worker death).

    The message carries the shard's traceback when one was received, so
    failures inside a worker process debug like failures in-process.
    """


# ---------------------------------------------------------------------------
# The namespace -> shard decision
# ---------------------------------------------------------------------------


def default_namespace(edge: EdgeId) -> str:
    """Namespace of an edge id: the prefix before the first ``":"``.

    String ids like ``"b0:e3"`` (the adversarial-mix convention) map to
    ``"b0"``.  Ids with no ``":"`` (plain strings, the network layer's
    ``(u, v)`` tuples) all share the single ``"default"`` namespace: a
    multi-edge request must land inside one shard, and without declared
    namespaces there is no partition that can guarantee it — one edge per
    namespace would reject the first multi-edge request it sees.  Such
    workloads shard trivially (one live shard); to spread them, give their
    edge ids namespace prefixes.
    """
    text = edge if isinstance(edge, str) else repr(edge)
    return text.split(":", 1)[0] if ":" in text else "default"


def _shard_of_namespace(namespace: str, num_shards: int) -> int:
    return stable_seed(namespace, "stream-shard") % num_shards


def validate_shard_partition(
    shards: Sequence[Optional[Mapping[str, Any]]],
    num_shards: int,
    *,
    what: str = "checkpoint",
) -> None:
    """Check a vector of shard checkpoints against a shard count.

    A namespace-partitioned checkpoint is only meaningful at the shard count
    it was written with: ``stable_seed(namespace) % num_shards`` changes with
    ``num_shards``, so resuming a 4-shard checkpoint with 2 shards would
    silently misroute every future arrival (new traffic hashed to shard 1 of
    2, historical weights sitting in shard 3 of 4).  This validates both the
    vector length and — for every edge in every non-empty shard — that the
    edge's namespace still hashes to the shard index it was checkpointed in.
    Raises :class:`~repro.instances.serialize.CheckpointFormatError` on any
    mismatch, naming the offending shard/namespace.
    """
    if len(shards) != int(num_shards):
        raise CheckpointFormatError(
            f"{what} carries {len(shards)} shard slots but num_shards={num_shards}; "
            "a namespace partition is only valid at the shard count it was written "
            "with — resume with the original count (or re-shard via a fresh run)"
        )
    for index, shard in enumerate(shards):
        if shard is None:
            continue
        for item in shard.get("capacities", []):
            edge = decode_edge_id(item["edge"])
            namespace = default_namespace(edge)
            expected = _shard_of_namespace(namespace, int(num_shards))
            if expected != index:
                raise CheckpointFormatError(
                    f"{what} shard {index} holds edge {edge!r} whose namespace "
                    f"{namespace!r} hashes to shard {expected} of {num_shards}; the "
                    "checkpoint was written under a different partition (changed "
                    "shard count) and cannot be resumed safely"
                )


# ---------------------------------------------------------------------------
# The shard side of the protocol (shared by both transports)
# ---------------------------------------------------------------------------


@dataclass
class _ShardConfig:
    """Everything one shard needs to build (or restore) its session."""

    shard: int
    capacities: Dict[EdgeId, int]
    algorithm: str
    backend: str
    seed: int
    algorithm_kwargs: Dict[str, Any]
    vectorized: bool
    retain_log: bool
    name: str
    checkpoint: Optional[Dict[str, Any]] = None


def _progress(session, entries) -> Dict[str, Any]:
    """The per-submission reply payload: absolute counters + optional entries."""
    return {
        "entries": entries,
        "processed": session.num_processed,
        "decisions": session.num_decisions,
    }


def _handle_start(conn, config: _ShardConfig):
    """Build (or restore) a shard's session and send the one ready reply.

    Returns the session, or ``None`` after replying with the build error.
    """
    from repro.engine.streaming import StreamingSession

    try:
        if config.checkpoint is not None:
            session = StreamingSession.restore(
                config.checkpoint, backend=config.backend, retain_log=config.retain_log
            )
            session.vectorized = config.vectorized
        else:
            session = StreamingSession(
                config.capacities,
                algorithm=config.algorithm,
                backend=config.backend,
                seed=config.seed,
                algorithm_kwargs=config.algorithm_kwargs,
                retain_log=config.retain_log,
                vectorized=config.vectorized,
                name=config.name,
            )
    except Exception as err:
        conn.send((
            "error",
            f"shard {config.shard} failed to start: {type(err).__name__}: {err}",
            traceback.format_exc(),
        ))
        return None
    conn.send(("ok", _progress(session, None)))
    return session


def _handle_command(conn, session, shard: int, message: Tuple) -> bool:
    """Run one command against a shard's session and send its one reply.

    Every command gets exactly one reply — ``("ok", payload)`` or
    ``("error", message, traceback)`` — in arrival order, which is what lets
    the parent pipeline submissions and drain with a barrier.  Returns
    ``False`` once the shard should stop.
    """
    command = message[0]
    try:
        if command == "batch":
            _, requests, collect = message
            entries = session.submit_batch(requests)
            conn.send(("ok", _progress(session, entries if collect else None)))
        elif command == "checkpoint":
            conn.send(("ok", session.checkpoint()))
        elif command == "log":
            conn.send(("ok", session.decision_log()))
        elif command == "summary":
            payload = session.summary()
            payload["augmentations"] = getattr(session.algorithm, "num_augmentations", None)
            conn.send(("ok", payload))
        elif command == "stop":
            try:
                conn.send(("ok", {"stopped": True}))
            except (BrokenPipeError, OSError):  # the parent closed its end first
                pass
            return False
        else:
            raise ValueError(f"unknown shard command {command!r}")
    except Exception as err:
        conn.send((
            "error",
            f"shard {shard} {command!r} failed: {type(err).__name__}: {err}",
            traceback.format_exc(),
        ))
    return True


def _shard_worker(conn, config: _ShardConfig) -> None:
    """Worker-process main loop: build the session, then serve FIFO commands."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates shutdown
    except (ValueError, OSError):  # pragma: no cover - non-main-thread fallback
        pass
    try:
        session = _handle_start(conn, config)
        while session is not None:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent vanished; exit quietly
            if not _handle_command(conn, session, config.shard, message):
                return
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


class _ReplyQueue(deque):
    """The shard end of an inline pipe: replies wait here for the parent."""

    send = deque.append


class _InlineShard:
    """A shard session in the calling process, behind a worker's surface.

    It stands in for both the pipe and the process of a worker: ``send``
    runs the command through :func:`_handle_command` right away and queues
    the reply for ``recv``.  ``pid`` is ``None``; it is alive until stopped.
    """

    pid = None
    exitcode = None

    def __init__(self, config: _ShardConfig):
        self._shard = config.shard
        self._replies = _ReplyQueue()
        self._session = _handle_start(self._replies, config)

    def send(self, message: Tuple) -> None:
        if self._session is None:
            raise BrokenPipeError(f"inline shard {self._shard} is stopped")
        if not _handle_command(self._replies, self._session, self._shard, message):
            self._session = None

    def recv(self) -> Any:
        if not self._replies:
            raise EOFError
        return self._replies.popleft()

    def poll(self) -> bool:
        return bool(self._replies)

    def is_alive(self) -> bool:
        return self._session is not None

    def close(self) -> None:
        self._session = None

    terminate = close

    def join(self, timeout: Optional[float] = None) -> None:
        pass


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side bookkeeping for one live shard."""

    shard: int
    process: Any
    conn: Any
    pending: deque = field(default_factory=deque)
    processed: int = 0
    decisions: int = 0


class ProcessShardPool:
    """One :class:`StreamingSession` per namespace shard, in-process or in workers.

    Parameters
    ----------
    capacities:
        The edge-capacity map.  Each edge goes to the shard of its namespace;
        shards that receive no edge get no session and no traffic, so any
        ``num_shards`` works regardless of how many namespaces exist.
    num_shards:
        Number of namespace partitions, and of worker processes when the
        shards run out of process.
    algorithm / backend / algorithm_kwargs / retain_log / vectorized:
        As for :class:`~repro.engine.streaming.StreamingSession`, applied to
        every shard session.
    seed:
        Shard ``k`` runs with ``stable_seed(seed, "stream-shard", k)``.
    start_method:
        ``"inline"`` runs the sessions in the calling process.  Anything else
        is a ``multiprocessing`` start method for one worker process per
        live shard; the default is ``fork`` where available (fast worker
        startup), ``spawn`` otherwise.

    Submission is synchronous when ``collect=True`` (entries return in
    arrival order) and pipelined when ``collect=False`` (:meth:`drain` is
    the barrier).  :meth:`checkpoint` drains and snapshots every shard;
    :meth:`restore` rebuilds the pool under either transport.  :meth:`close`
    stops every shard, on success and failure alike.
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        num_shards: int,
        algorithm: str = "fractional",
        *,
        backend: BackendSpec = None,
        seed: int = 0,
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        retain_log: bool = True,
        vectorized: bool = True,
        name: str = "shard-pool",
        start_method: Optional[str] = None,
        _shard_checkpoints: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self.algorithm_key = algorithm
        self.backend = resolve_backend_name(backend)
        self.seed = int(seed)
        self.name = name
        self._workers: List[Optional[_Worker]] = [None] * self.num_shards
        self._closed = False

        #: The namespace -> shard decision, made once per edge.
        self._shard_of_edge: Dict[EdgeId, int] = {}
        shard_caps: List[Dict[EdgeId, int]] = [{} for _ in range(self.num_shards)]
        for edge, cap in capacities.items():
            shard = _shard_of_namespace(default_namespace(edge), self.num_shards)
            self._shard_of_edge[edge] = shard
            shard_caps[shard][edge] = int(cap)

        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.start_method = start_method
        try:
            for k, caps in enumerate(shard_caps):
                if not caps:
                    continue  # empty namespace partition: no session, no traffic
                config = _ShardConfig(
                    shard=k,
                    capacities=caps,
                    algorithm=algorithm,
                    backend=self.backend,
                    seed=stable_seed(self.seed, "stream-shard", k),
                    algorithm_kwargs=dict(algorithm_kwargs or {}),
                    vectorized=bool(vectorized),
                    retain_log=bool(retain_log),
                    name=f"{name}/shard{k}",
                    checkpoint=None if _shard_checkpoints is None else _shard_checkpoints[k],
                )
                self._workers[k] = self._start(config)
            # Ready barrier: surface shard build errors here, not on first use.
            for worker in self._live():
                worker.pending.append("ready")
                self._consume_one(worker)
        except BaseException:
            self.close()
            raise

    def _start(self, config: _ShardConfig) -> _Worker:
        if self.start_method == INLINE:
            inline = _InlineShard(config)
            return _Worker(shard=config.shard, process=inline, conn=inline)
        ctx = mp.get_context(self.start_method)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=_shard_worker, args=(child_conn, config), daemon=True)
        process.start()
        child_conn.close()
        return _Worker(shard=config.shard, process=process, conn=parent_conn)

    def _live(self) -> List[_Worker]:
        return [w for w in self._workers if w is not None]

    # -- protocol plumbing --------------------------------------------------------
    def _send(self, worker: _Worker, message: Tuple) -> None:
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError) as err:
            raise ShardWorkerError(
                f"shard {worker.shard} worker is gone (pid {worker.process.pid}): {err}"
            ) from None
        worker.pending.append(message[0])

    def _consume_one(self, worker: _Worker) -> Any:
        """Receive exactly one reply (FIFO) and apply its counters."""
        command = worker.pending.popleft()
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerError(
                f"shard {worker.shard} worker died while processing {command!r} "
                f"(pid {worker.process.pid}, exitcode {worker.process.exitcode})"
            ) from None
        if reply[0] == "error":
            message, trace_text = reply[1], reply[2]
            raise ShardWorkerError(f"{message}\n--- worker traceback ---\n{trace_text}")
        payload = reply[1]
        if command in ("ready", "batch"):
            worker.processed = int(payload["processed"])
            worker.decisions = int(payload["decisions"])
        return payload

    def _sync_reply(self, worker: _Worker) -> Any:
        """Drain the worker's reply queue; return the payload of the last one."""
        payload = None
        while worker.pending:
            payload = self._consume_one(worker)
        return payload

    def _reap(self) -> None:
        """Consume already-available replies without blocking."""
        for worker in self._live():
            while worker.pending and worker.conn.poll():
                self._consume_one(worker)

    # -- routing ------------------------------------------------------------------
    def shard_of(self, request: Request) -> int:
        """The shard a request routes to.

        Raises :class:`ValueError` for an edge outside the capacity map
        (naming it) and for a request whose edges span shards.
        """
        shard_of_edge = self._shard_of_edge
        shards = set()
        for edge in request.ordered_edges:
            shard = shard_of_edge.get(edge)
            if shard is None:
                raise ValueError(f"request {request.request_id} uses unknown edge {edge!r}")
            shards.add(shard)
        if len(shards) != 1:
            raise ValueError(
                f"request {request.request_id} spans shards {sorted(shards)}; "
                "sharded streaming requires single-namespace requests"
            )
        return shards.pop()

    # -- streaming ----------------------------------------------------------------
    def submit_batch(
        self, requests: Iterable[Request], *, collect: bool = True
    ) -> Optional[List[Dict[str, Any]]]:
        """Submit a micro-batch; returns its decision entries when ``collect``.

        The whole batch is checked before any shard sees it: an id repeated
        within the batch, an edge outside the capacity map and a request
        spanning shards raise :class:`ValueError` and leave the pool as it
        was.  Each shard then receives its arrivals in arrival order.

        ``collect=True`` sends maximal runs of consecutive same-shard
        arrivals and waits for each, so the entries come back in arrival
        order: the combined decision stream is a function of the arrival
        sequence alone, independent of batch boundaries, and therefore
        identical across a checkpoint/resume.  ``collect=False`` sends each
        shard one message holding all its arrivals and returns at once;
        :meth:`drain` (or :meth:`checkpoint`) is the barrier.
        """
        self._ensure_open()
        batch = RequestSequence(requests)  # rejects ids repeated in the batch
        routed = [(self.shard_of(request), request) for request in batch]
        self._reap()
        if not collect:
            by_shard: Dict[int, List[Request]] = {}
            for shard, request in routed:
                by_shard.setdefault(shard, []).append(request)
            for shard, arrivals in by_shard.items():
                self._send(self._workers[shard], ("batch", arrivals, False))
            return None
        out: List[Dict[str, Any]] = []
        for shard, run in groupby(routed, key=itemgetter(0)):
            worker = self._workers[shard]
            self._send(worker, ("batch", [request for _, request in run], True))
            out.extend(self._sync_reply(worker)["entries"])
        return out

    def submit_stream(
        self, requests: Iterable[Request], *, batch_size: int = 64, collect: bool = False
    ) -> int:
        """Drain an arrival iterable through :meth:`submit_batch` chunks."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        count = 0
        chunk: List[Request] = []
        for request in requests:
            chunk.append(request)
            if len(chunk) >= batch_size:
                self.submit_batch(chunk, collect=collect)
                count += len(chunk)
                chunk = []
        if chunk:
            self.submit_batch(chunk, collect=collect)
            count += len(chunk)
        self.drain()
        return count

    def drain(self) -> int:
        """Barrier: wait for every outstanding submission; return total processed."""
        self._ensure_open()
        for worker in self._live():
            self._sync_reply(worker)
        return self.num_processed

    # -- introspection ------------------------------------------------------------
    @property
    def num_processed(self) -> int:
        """Arrivals acknowledged across all shards (call :meth:`drain` first
        for an exact count while pipelined submissions are in flight)."""
        return sum(w.processed for w in self._live())

    @property
    def num_decisions(self) -> int:
        """Decision entries acknowledged across all shards (see :attr:`num_processed`)."""
        return sum(w.decisions for w in self._live())

    def shard_stats(self) -> Dict[int, Dict[str, Any]]:
        """Non-blocking per-shard progress and queue-depth counters.

        Reaps already-available replies first (never blocks on in-flight
        work), so ``processed``/``decisions`` are the latest *acknowledged*
        counters and ``pending`` is the number of commands still awaiting a
        reply — the parent-side lag signal the service health monitor watches.
        :meth:`~repro.engine.streaming.StreamingSession.shard_stats` exports
        the same shape, so callers need not care which backend they hold.
        """
        self._ensure_open()
        self._reap()
        return {
            worker.shard: {
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "pending": len(worker.pending),
                "processed": worker.processed,
                "decisions": worker.decisions,
            }
            for worker in self._live()
        }

    def _ask_all(self, message: Tuple) -> Dict[int, Any]:
        """Drain, send ``message`` to every shard, return the replies by shard."""
        self.drain()
        for worker in self._live():
            self._send(worker, message)
        return {worker.shard: self._sync_reply(worker) for worker in self._live()}

    def decision_logs(self) -> Dict[int, List[Dict[str, Any]]]:
        """Per-shard decision logs (requires ``retain_log=True``)."""
        return self._ask_all(("log",))

    def summary(self) -> Dict[str, Any]:
        """Pool-level telemetry plus one line per shard session."""
        shards = self._ask_all(("summary",))
        return {
            "name": self.name,
            "num_shards": self.num_shards,
            "processed": self.num_processed,
            "shards": shards,
        }

    def fractional_cost(self) -> float:
        """Objective value of the pool's fractional solution: the sum over its shards."""
        return float(sum(line["fractional_cost"] for line in self._ask_all(("summary",)).values()))

    @property
    def num_augmentations(self) -> Optional[int]:
        """Weight augmentations summed over the shards (``None`` if a shard counts none)."""
        counts = [line["augmentations"] for line in self._ask_all(("summary",)).values()]
        return None if None in counts else int(sum(counts))

    # -- checkpointing ------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Drain and snapshot the whole pool: one session checkpoint per shard."""
        shards: List[Optional[Dict[str, Any]]] = [None] * self.num_shards
        for shard, document in self._ask_all(("checkpoint",)).items():
            shards[shard] = document
        return {
            "kind": POOL_CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA,
            "name": self.name,
            "algorithm": self.algorithm_key,
            "backend": self.backend,
            "seed": self.seed,
            "num_shards": self.num_shards,
            "shards": shards,
        }

    def save(self, path) -> Any:
        """Write :meth:`checkpoint` to ``path`` (atomic write-then-rename)."""
        return dump_checkpoint(self.checkpoint(), path)

    @classmethod
    def restore(
        cls,
        checkpoint: Mapping[str, Any],
        *,
        backend: BackendSpec = None,
        retain_log: bool = True,
        start_method: Optional[str] = None,
    ) -> "ProcessShardPool":
        """Rebuild a pool from a checkpoint document, under either transport.

        The shard vector is validated against ``num_shards`` and the
        namespace partition before any shard starts, so a checkpoint from a
        differently-sized pool fails with :class:`CheckpointFormatError`
        instead of misrouting.
        """
        validate_checkpoint(checkpoint, expected_kind=POOL_CHECKPOINT_KIND)
        shards = list(checkpoint["shards"])
        num_shards = int(checkpoint["num_shards"])
        validate_shard_partition(shards, num_shards, what="pool checkpoint")
        return cls(
            _capacities_union(shards),
            num_shards,
            checkpoint["algorithm"],
            backend=backend if backend is not None else checkpoint["backend"],
            seed=int(checkpoint["seed"]),
            retain_log=retain_log,
            name=checkpoint.get("name", "shard-pool"),
            start_method=start_method,
            _shard_checkpoints=shards,
        )

    @classmethod
    def load(cls, path, **kwargs: Any) -> "ProcessShardPool":
        """Restore a pool from a checkpoint file written by :meth:`save`."""
        return cls.restore(load_checkpoint(path, expected_kind=POOL_CHECKPOINT_KIND), **kwargs)

    # -- lifecycle ----------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ValueError("pool is closed")

    def close(self) -> None:
        """Stop every shard (idempotent; the constructor's failure path too)."""
        if self._closed:
            return
        self._closed = True
        try:
            for worker in self._live():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._live():
                try:
                    worker.conn.close()
                except Exception:  # pragma: no cover
                    pass
                worker.process.join(timeout=10)
                if worker.process.is_alive():  # pragma: no cover - hung worker
                    worker.process.terminate()
                    worker.process.join(timeout=5)
        finally:
            self._workers = [None] * self.num_shards

    def terminate(self) -> None:
        """Kill the shards without draining (crash simulation)."""
        if self._closed:
            return
        self._closed = True
        try:
            for worker in self._live():
                worker.process.terminate()
                worker.process.join(timeout=5)
                try:
                    worker.conn.close()
                except Exception:  # pragma: no cover
                    pass
        finally:
            self._workers = [None] * self.num_shards

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent safety net
        try:
            self.close()
        except Exception:
            pass


def _capacities_union(shards: Sequence[Optional[Mapping[str, Any]]]) -> Dict[EdgeId, int]:
    """Merged capacity map of a checkpoint's shard vector."""
    union: Dict[EdgeId, int] = {}
    for shard in shards:
        if shard is None:
            continue
        for item in shard["capacities"]:
            union[decode_edge_id(item["edge"])] = int(item["capacity"])
    return union
