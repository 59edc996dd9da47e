"""Multi-process shard scale-out: shared-memory traces + pluggable routing.

:class:`~repro.engine.streaming.ShardedStreamRouter` scales the streaming
service *within* one process: N independent sessions, one per namespace
partition, all sharing the GIL.  This module scales the same vector of
sessions *out* to N worker processes:

* :class:`SharedCompiledTrace` publishes a
  :class:`~repro.instances.compiled.CompiledInstance`'s CSR arrays
  (``indptr`` / ``indices`` over dense edge ids, plus ``costs`` /
  ``request_ids`` / ``capacities``) once via
  :mod:`multiprocessing.shared_memory`; every worker maps the segments
  zero-copy, so compile cost and instance memory are paid once regardless of
  worker count.  Workers materialise :class:`~repro.instances.request.
  Request` objects lazily from the shared arrays (:class:`_LazyRequests`),
  in the same canonical edge order as the originals, so integral algorithms
  that need rich request objects behave bit-identically.
* :data:`ROUTING_STRATEGIES` is a :class:`~repro.engine.registry.Registry`
  of pluggable routing policies: ``namespace`` (the router's partition,
  bit-compatible), ``round_robin``, ``least_loaded`` (outstanding-batch
  depth) and ``cost_aware`` (melange-style bucketed per-shard cost tables).
* :class:`ProcessShardPool` runs one
  :class:`~repro.engine.streaming.StreamingSession` per worker process and
  speaks a strict FIFO command protocol over pipes, so micro-batches can be
  submitted asynchronously (``collect=False``) and drained with a barrier.
  Pool checkpoints extend the router's vector-of-session shape
  (:data:`POOL_CHECKPOINT_KIND`): drain, snapshot every worker, restore the
  whole pool in a fresh set of processes.

Determinism contract: under the ``namespace`` strategy the pool builds the
*exact* sessions :class:`ShardedStreamRouter` builds — same capacity
partition, same ``stable_seed(seed, "stream-shard", k)`` per-shard seeds,
same ``submit_batch`` code path — so decisions match the single-process
router at 1e-9 (bit-for-bit in practice), and per-shard results are
independent of *where* each session runs.  The replica strategies
(``round_robin`` / ``least_loaded`` / ``cost_aware``) instead give every
worker the full capacity map and spread whole micro-batches; they trade the
partition guarantee for throughput on un-namespaced traffic.

Shared-memory hygiene: the parent owns every segment and unlinks it on
:meth:`ProcessShardPool.close` — including the failure paths (construction
errors, worker crashes), so CI runners never leak ``/dev/shm``.  Workers
attach read-only and explicitly unregister from the resource tracker (the
tracker would otherwise double-unlink on worker exit).
"""

from __future__ import annotations

import signal
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.backends import BackendSpec, resolve_backend_name, resolve_record_flag
from repro.engine.registry import Registry
from repro.instances.compiled import CompiledInstance, intern_edges
from repro.instances.request import EdgeId, Request
from repro.instances.serialize import (
    CHECKPOINT_SCHEMA,
    CheckpointFormatError,
    dump_checkpoint,
    load_checkpoint,
    validate_checkpoint,
)
from repro.utils.rng import stable_seed

__all__ = [
    "ROUTING_STRATEGIES",
    "RoutingStrategy",
    "NamespaceStrategy",
    "RoundRobinStrategy",
    "LeastLoadedStrategy",
    "CostAwareStrategy",
    "SharedCompiledTrace",
    "attach_shared_trace",
    "ProcessShardPool",
    "ShardWorkerError",
    "POOL_CHECKPOINT_KIND",
]

#: The ``kind`` field of a pool checkpoint (strategy state + one checkpoint
#: per worker, the router's vector-of-sessions shape extended).
POOL_CHECKPOINT_KIND = "shard-pool-checkpoint"


class ShardWorkerError(RuntimeError):
    """A worker process failed (build error, command error, or sudden death).

    The message carries the worker's traceback when one was received, so
    failures inside a shard debug like failures in-process.
    """


# ---------------------------------------------------------------------------
# Routing strategies
# ---------------------------------------------------------------------------

#: Pluggable batch-routing policies, mirroring the engine registries: strict
#: duplicate registration, unknown keys raise with the known-key list.
ROUTING_STRATEGIES: Registry = Registry("routing strategy")


class RoutingStrategy:
    """Decide which shard a micro-batch lands on.

    ``partitioned`` strategies split the edge set across shards (each worker
    owns a disjoint capacity partition and arrivals route per-request by
    namespace); replica strategies give every worker the full capacity map
    and route whole batches.  :meth:`route` receives the batch's request
    costs and the per-shard outstanding-batch depths and returns a shard
    index; it is called only for replica strategies.

    Routing state that future routing depends on (cursors, accumulated work)
    round-trips through :meth:`export_state` / :meth:`restore_state` so a
    restored pool keeps routing exactly where the checkpoint stopped.
    """

    #: True when the strategy partitions edges across shards (namespace
    #: routing); False when every shard replicates the full capacity map.
    partitioned = False

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)

    def route(self, costs: Sequence[float], depths: Sequence[int]) -> int:
        """Shard index for a batch with ``costs``, given outstanding depths."""
        raise NotImplementedError

    def export_state(self) -> Dict[str, Any]:
        """JSON-able routing state (what future routing depends on)."""
        return {}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`export_state`."""


@ROUTING_STRATEGIES.register("namespace")
class NamespaceStrategy(RoutingStrategy):
    """Today's router behavior: partition edges by namespace, bit-compatible.

    Every namespace maps to ``stable_seed(namespace, "stream-shard") %
    num_shards`` — the exact :class:`~repro.engine.streaming.
    ShardedStreamRouter` mapping — so a pool and a router with the same shard
    count produce identical decisions.
    """

    partitioned = True

    def shard_of_namespace(self, namespace: str) -> int:
        """Deterministic namespace -> shard mapping (hash-seed independent)."""
        return stable_seed(namespace, "stream-shard") % self.num_shards

    def route(self, costs: Sequence[float], depths: Sequence[int]) -> int:
        raise TypeError(
            "namespace routing is per-request (partitioned), not per-batch; "
            "the pool routes through shard_of_namespace()"
        )


@ROUTING_STRATEGIES.register("round_robin")
class RoundRobinStrategy(RoutingStrategy):
    """Cycle batches through the shards in index order."""

    def __init__(self, num_shards: int):
        super().__init__(num_shards)
        self._cursor = 0

    def route(self, costs: Sequence[float], depths: Sequence[int]) -> int:
        shard = self._cursor
        self._cursor = (self._cursor + 1) % self.num_shards
        return shard

    def export_state(self) -> Dict[str, Any]:
        return {"cursor": self._cursor}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._cursor = int(state.get("cursor", 0)) % self.num_shards


@ROUTING_STRATEGIES.register("least_loaded")
class LeastLoadedStrategy(RoutingStrategy):
    """Route to the shard with the fewest outstanding (unacknowledged) batches.

    Depth is the pool's pending-reply count per worker, refreshed by the
    non-blocking reap the pool performs before every routing decision, so a
    slow shard sheds load to its idle peers.  Ties break to the lowest index,
    keeping the policy deterministic for a given completion pattern.
    """

    def route(self, costs: Sequence[float], depths: Sequence[int]) -> int:
        return int(min(range(self.num_shards), key=lambda k: (depths[k], k)))


@ROUTING_STRATEGIES.register("cost_aware")
class CostAwareStrategy(RoutingStrategy):
    """Melange-style bucketed-cost load balancing.

    Request costs are bucketed into geometric bands (``bucket_edges``); each
    shard has a per-bucket unit-work table (``1 / shard_speeds[k]`` by
    default, so heterogeneous workers can be modelled by passing speeds).  A
    batch's estimated work on shard ``k`` is the sum of its requests' bucket
    weights; the batch routes to the shard minimising *cumulative assigned
    work*, which balances total estimated work deterministically — the
    bucketed analogue of join-shortest-queue without needing completion
    feedback.  The accumulators are checkpoint state.
    """

    #: RPR004 allowlist: the unit-work table is derived in the constructor
    #: from bucket_edges/shard_speeds and never mutated; only ``_assigned``
    #: (the accumulators) is durable routing state.
    _LINT_STATE_EXEMPT = frozenset({"_table"})

    def __init__(
        self,
        num_shards: int,
        *,
        bucket_edges: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        shard_speeds: Optional[Sequence[float]] = None,
    ):
        super().__init__(num_shards)
        self.bucket_edges = tuple(float(e) for e in bucket_edges)
        if list(self.bucket_edges) != sorted(self.bucket_edges):
            raise ValueError("bucket_edges must be sorted ascending")
        speeds = [1.0] * num_shards if shard_speeds is None else [float(s) for s in shard_speeds]
        if len(speeds) != num_shards or any(s <= 0 for s in speeds):
            raise ValueError("shard_speeds needs one positive entry per shard")
        # table[k][b]: estimated unit work of a bucket-b request on shard k.
        # Bucket weight grows with the band index — more expensive requests
        # stay alive longer and cause more augmentation work downstream.
        self._table = [
            [float(b + 1) / speeds[k] for b in range(len(self.bucket_edges) + 1)]
            for k in range(num_shards)
        ]
        self._assigned = [0.0] * num_shards

    def _bucket(self, cost: float) -> int:
        for b, edge in enumerate(self.bucket_edges):
            if cost <= edge:
                return b
        return len(self.bucket_edges)

    def route(self, costs: Sequence[float], depths: Sequence[int]) -> int:
        buckets = [self._bucket(float(c)) for c in costs]
        estimates = [
            sum(self._table[k][b] for b in buckets) for k in range(self.num_shards)
        ]
        shard = int(
            min(range(self.num_shards), key=lambda k: (self._assigned[k] + estimates[k], k))
        )
        self._assigned[shard] += estimates[shard]
        return shard

    def export_state(self) -> Dict[str, Any]:
        return {"assigned": list(self._assigned)}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        assigned = state.get("assigned")
        if assigned is not None and len(assigned) == self.num_shards:
            self._assigned = [float(a) for a in assigned]


def make_strategy(key: str, num_shards: int, **kwargs: Any) -> RoutingStrategy:
    """Build a routing strategy by registry key (unknown keys raise with the list)."""
    cls = ROUTING_STRATEGIES.get(key)
    return cls(num_shards, **kwargs)


# ---------------------------------------------------------------------------
# Shared-memory compiled traces
# ---------------------------------------------------------------------------

#: The array fields of a CompiledInstance that ship as shared segments.
_SHARED_FIELDS = ("capacities", "indptr", "indices", "costs", "request_ids")


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    On 3.8–3.12, *attaching* to a segment registers it with the resource
    tracker exactly like creating one (no ``track=False`` until 3.13), so an
    exiting worker would unlink the parent's segment out from under its
    peers — and under ``fork`` the tracker process is *shared*, so even an
    ``unregister`` after the fact would race the other workers and drop the
    parent's own registration.  Only the creating process may own cleanup:
    suppress registration for the duration of the attach instead.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


class _LazyRequests:
    """Materialise :class:`Request` objects on demand from shared CSR arrays.

    Algorithms that need rich request objects (the randomized rounding's
    acceptance bookkeeping) call ``compiled.request(i)``; rebuilding the
    request from the arrays is bit-compatible because :class:`Request`
    canonicalises its edge order (repr-sorted) independently of the source
    iteration order.
    """

    def __init__(
        self,
        edge_order: Tuple[EdgeId, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
        costs: np.ndarray,
        request_ids: np.ndarray,
        tags: Tuple[Optional[str], ...],
    ):
        self._edge_order = edge_order
        self._indptr = indptr
        self._indices = indices
        self._costs = costs
        self._request_ids = request_ids
        self._tags = tags

    def __len__(self) -> int:
        return int(self._request_ids.shape[0])

    def __getitem__(self, i: int) -> Request:
        lo, hi = int(self._indptr[i]), int(self._indptr[i + 1])
        edges = frozenset(self._edge_order[int(k)] for k in self._indices[lo:hi])
        return Request(
            int(self._request_ids[i]), edges, float(self._costs[i]), tag=self._tags[i]
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class SharedCompiledTrace:
    """Publish a compiled instance's arrays as shared-memory segments.

    The parent creates one segment per array field, copies the data in once,
    and hands workers a small picklable *handle* (segment names + dtypes +
    shapes + the non-array metadata).  :func:`attach_shared_trace` rebuilds a
    zero-copy :class:`CompiledInstance` view in each worker.

    The creating process owns the segments: :meth:`close` (idempotent, also
    run by ``__del__`` as a last resort) closes and unlinks every segment, so
    a crashed run never leaves ``/dev/shm`` entries behind.
    """

    def __init__(self, compiled: CompiledInstance):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._meta: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
        self._closed = False
        self.name = compiled.name
        self._edge_order = compiled.edge_order
        self._tags = compiled.tags
        try:
            for field_name in _SHARED_FIELDS:
                array = np.ascontiguousarray(getattr(compiled, field_name))
                shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
                view[...] = array
                self._segments[field_name] = shm
                self._meta[field_name] = (shm.name, array.dtype.str, array.shape)
        except BaseException:
            self.close()
            raise

    def handle(self) -> Dict[str, Any]:
        """Picklable attachment handle (segment names + metadata, no data)."""
        if self._closed:
            raise ValueError("shared trace is closed")
        return {
            "name": self.name,
            "edge_order": self._edge_order,
            "tags": self._tags,
            "segments": dict(self._meta),
        }

    @property
    def segment_names(self) -> List[str]:
        """The OS-level names of the published segments (for leak checks)."""
        return [meta[0] for meta in self._meta.values()]

    def close(self) -> None:
        """Close and unlink every segment (idempotent, exception-safe)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - buffer already released
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def __del__(self):  # pragma: no cover - GC-order dependent safety net
        self.close()

    def __enter__(self) -> "SharedCompiledTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_shared_trace(
    handle: Mapping[str, Any],
) -> Tuple[CompiledInstance, List[shared_memory.SharedMemory]]:
    """Map a published trace into this process as a zero-copy CompiledInstance.

    Returns ``(compiled, segments)``; the caller must keep the segment
    objects alive as long as the compiled view is used and ``close()`` (not
    unlink) them afterwards — the publishing process owns the unlink.
    """
    segments: List[shared_memory.SharedMemory] = []
    arrays: Dict[str, np.ndarray] = {}
    try:
        for field_name, (seg_name, dtype_str, shape) in handle["segments"].items():
            shm = _attach_untracked(seg_name)
            segments.append(shm)
            arrays[field_name] = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
    except BaseException:
        for shm in segments:
            shm.close()
        raise
    edge_order = tuple(handle["edge_order"])
    tags = tuple(handle["tags"])
    requests = _LazyRequests(
        edge_order,
        arrays["indptr"],
        arrays["indices"],
        arrays["costs"],
        arrays["request_ids"],
        tags,
    )
    compiled = CompiledInstance(
        interning=intern_edges(dict(zip(edge_order, arrays["capacities"].tolist()))),
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        costs=arrays["costs"],
        request_ids=arrays["request_ids"],
        tags=tags,
        requests=requests,
        name=handle.get("name", "shared-trace"),
    )
    return compiled, segments


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


@dataclass
class _WorkerConfig:
    """Everything one worker needs to build (or restore) its session."""

    shard: int
    capacities: Dict[EdgeId, int]
    algorithm: str
    backend: Optional[str]
    record: Optional[bool]
    seed: int
    algorithm_kwargs: Dict[str, Any]
    vectorized: bool
    retain_log: bool
    name: str
    checkpoint: Optional[Dict[str, Any]] = None


def _shard_worker(conn, config: _WorkerConfig) -> None:
    """Worker main loop: build the session, then serve FIFO commands.

    Every command gets exactly one reply — ``("ok", payload)`` or
    ``("error", message, traceback)`` — in arrival order, which is what lets
    the parent pipeline submissions and drain with a barrier.
    """
    from repro.engine.streaming import StreamingSession

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates shutdown
    except (ValueError, OSError):  # pragma: no cover - non-main-thread fallback
        pass

    attached: List[shared_memory.SharedMemory] = []
    trace: Optional[CompiledInstance] = None
    try:
        try:
            if config.checkpoint is not None:
                session = StreamingSession.restore(
                    config.checkpoint,
                    backend=config.backend,
                    retain_log=config.retain_log,
                )
                session.vectorized = config.vectorized
            else:
                session = StreamingSession(
                    config.capacities,
                    algorithm=config.algorithm,
                    backend=config.backend,
                    record=config.record,
                    seed=config.seed,
                    algorithm_kwargs=config.algorithm_kwargs,
                    retain_log=config.retain_log,
                    vectorized=config.vectorized,
                    name=config.name,
                )
            conn.send(
                ("ok", {"processed": session.num_processed, "decisions": session.num_decisions})
            )
        except Exception as err:
            conn.send((
                "error",
                f"shard {config.shard} failed to start: {type(err).__name__}: {err}",
                traceback.format_exc(),
            ))
            return

        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent vanished; exit quietly
            command = message[0]
            try:
                if command == "batch":
                    _, requests, collect = message
                    entries = session.submit_batch(requests)
                    conn.send(("ok", _progress(session, entries if collect else None)))
                elif command == "range":
                    _, lo, hi, collect = message
                    if trace is None:
                        raise RuntimeError("no shared trace attached (send 'attach' first)")
                    entries = session.submit_compiled_range(trace, lo, hi)
                    conn.send(("ok", _progress(session, entries if collect else None)))
                elif command == "attach":
                    trace, new_segments = attach_shared_trace(message[1])
                    attached.extend(new_segments)
                    conn.send(("ok", {"attached": trace.name}))
                elif command == "checkpoint":
                    conn.send(("ok", session.checkpoint()))
                elif command == "log":
                    conn.send(("ok", session.decision_log()))
                elif command == "summary":
                    payload = session.summary()
                    payload["augmentations"] = getattr(
                        session.algorithm, "num_augmentations", None
                    )
                    conn.send(("ok", payload))
                elif command == "stop":
                    try:
                        conn.send(("ok", {"stopped": True}))
                    except (BrokenPipeError, OSError):  # pragma: no cover
                        pass
                    return
                else:
                    raise ValueError(f"unknown shard command {command!r}")
            except Exception as err:
                conn.send((
                    "error",
                    f"shard {config.shard} {command!r} failed: {type(err).__name__}: {err}",
                    traceback.format_exc(),
                ))
    finally:
        for shm in attached:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def _progress(session, entries) -> Dict[str, Any]:
    """The per-submission reply payload: absolute counters + optional entries."""
    return {
        "entries": entries,
        "processed": session.num_processed,
        "decisions": session.num_decisions,
    }


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side bookkeeping for one live worker process."""

    shard: int
    process: Any
    conn: Any
    pending: deque = field(default_factory=deque)
    processed: int = 0
    decisions: int = 0


class ProcessShardPool:
    """One :class:`StreamingSession` per worker process, routed micro-batches.

    Parameters mirror :class:`~repro.engine.streaming.ShardedStreamRouter`
    (capacities, algorithm key, backend/record/seed, ``namespace_of``,
    ``algorithm_kwargs``, ``retain_log``, ``vectorized``, ``name``) plus:

    strategy:
        A :data:`ROUTING_STRATEGIES` key (or ``strategy_kwargs`` for the
        strategy constructor).  ``namespace`` partitions edges exactly like
        the router — one shard per worker, per-shard seeds
        ``stable_seed(seed, "stream-shard", k)`` — so results are
        bit-compatible with the single-process router and independent of
        where each shard runs.  The replica strategies give every worker the
        full capacity map and route whole batches.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast worker startup), ``spawn`` otherwise.

    Submission is synchronous when ``collect=True`` (entries return in
    arrival order) and pipelined when ``collect=False`` (:meth:`drain` is
    the barrier).  :meth:`checkpoint` drains, snapshots every worker session
    plus the routing state, and :meth:`restore` rebuilds the whole pool in
    fresh processes.  :meth:`close` shuts workers down and unlinks every
    shared-memory segment, on success and failure alike.
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        num_workers: int,
        algorithm: str = "fractional",
        *,
        strategy: str = "namespace",
        backend: BackendSpec = None,
        record: Optional[bool] = None,
        seed: int = 0,
        namespace_of: Optional[Callable[[EdgeId], str]] = None,
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        retain_log: bool = True,
        vectorized: bool = True,
        name: str = "shard-pool",
        strategy_kwargs: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        _worker_checkpoints: Optional[List[Optional[Dict[str, Any]]]] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.algorithm_key = algorithm
        self.backend = resolve_backend_name(backend)
        self.record = resolve_record_flag(backend, record)
        self.seed = int(seed)
        self.name = name
        self.vectorized = bool(vectorized)
        self.retain_log = bool(retain_log)
        self._kwargs = dict(algorithm_kwargs or {})
        self.strategy_key = strategy.strip().lower()
        self._strategy = make_strategy(self.strategy_key, self.num_workers, **(strategy_kwargs or {}))
        from repro.engine.streaming import default_namespace

        self._namespace_of = namespace_of or default_namespace
        self._workers: List[Optional[_Worker]] = [None] * self.num_workers
        self._trace: Optional[SharedCompiledTrace] = None
        self._compiled: Optional[CompiledInstance] = None
        self._closed = False

        import multiprocessing as mp

        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)

        try:
            shard_caps = self._partition(capacities)
            for k, caps in enumerate(shard_caps):
                if not caps and _worker_checkpoints is None:
                    continue  # empty namespace partition: no worker, no traffic
                checkpoint = None
                if _worker_checkpoints is not None:
                    checkpoint = _worker_checkpoints[k]
                    if checkpoint is None:
                        continue
                config = _WorkerConfig(
                    shard=k,
                    capacities=caps,
                    algorithm=algorithm,
                    backend=self.backend,
                    record=record,
                    seed=stable_seed(self.seed, "stream-shard", k),
                    algorithm_kwargs=self._kwargs,
                    vectorized=self.vectorized,
                    retain_log=self.retain_log,
                    name=f"{name}/shard{k}",
                    checkpoint=checkpoint,
                )
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                process = self._ctx.Process(
                    target=_shard_worker, args=(child_conn, config), daemon=True
                )
                process.start()
                child_conn.close()
                self._workers[k] = _Worker(shard=k, process=process, conn=parent_conn)
            # Ready barrier: surface worker build errors here, not on first use.
            for worker in self._live():
                worker.pending.append("ready")
                payload = self._consume_one(worker)
                worker.processed = int(payload["processed"])
                worker.decisions = int(payload["decisions"])
        except BaseException:
            self.close()
            raise

    # -- construction helpers -----------------------------------------------------
    def _partition(self, capacities: Mapping[EdgeId, int]) -> List[Dict[EdgeId, int]]:
        """Per-shard capacity maps: namespace partition or full replicas."""
        if self._strategy.partitioned:
            shard_caps: List[Dict[EdgeId, int]] = [{} for _ in range(self.num_workers)]
            for edge, cap in capacities.items():
                shard = self._strategy.shard_of_namespace(self._namespace_of(edge))
                shard_caps[shard][edge] = int(cap)
            return shard_caps
        full = {edge: int(cap) for edge, cap in capacities.items()}
        return [dict(full) for _ in range(self.num_workers)]

    def _live(self) -> List[_Worker]:
        return [w for w in self._workers if w is not None]

    def _worker(self, shard: int) -> _Worker:
        worker = self._workers[shard]
        if worker is None:
            raise ValueError(f"shard {shard} has no edges and therefore no worker")
        return worker

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
        if command in ("batch", "range"):
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
        """Consume already-available replies without blocking (depth refresh)."""
        for worker in self._live():
            while worker.pending and worker.conn.poll():
                self._consume_one(worker)

    def _depths(self) -> List[int]:
        return [0 if w is None else len(w.pending) for w in self._workers]

    # -- routing ------------------------------------------------------------------
    def shard_of(self, request: Request) -> int:
        """Shard of one request under a partitioned strategy (router semantics)."""
        if not self._strategy.partitioned:
            raise TypeError(
                f"strategy {self.strategy_key!r} routes whole batches; "
                "per-request shards exist only under partitioned strategies"
            )
        shards = {
            self._strategy.shard_of_namespace(self._namespace_of(e)) for e in request.ordered_edges
        }
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
        """Submit a micro-batch; returns decision entries when ``collect``.

        Partitioned strategies split the batch into maximal same-shard runs
        (the router's arrival-order contract); replica strategies route the
        whole batch through the strategy.  With ``collect=False`` the
        submission is pipelined — call :meth:`drain` (or :meth:`checkpoint`)
        to wait for completion.
        """
        self._ensure_open()
        batch = list(requests)
        if not batch:
            return [] if collect else None
        self._reap()
        if self._strategy.partitioned:
            out: List[Dict[str, Any]] = []
            run: List[Request] = []
            run_shard: Optional[int] = None
            for request in batch:
                shard = self.shard_of(request)
                if run and shard != run_shard:
                    out.extend(self._submit_run(run_shard, run, collect))
                    run = []
                run_shard = shard
                run.append(request)
            if run:
                out.extend(self._submit_run(run_shard, run, collect))
            return out if collect else None
        self._reap()
        shard = self._strategy.route([r.cost for r in batch], self._depths())
        worker = self._worker(shard)
        self._send(worker, ("batch", batch, collect))
        if not collect:
            return None
        payload = self._sync_reply(worker)
        return list(payload["entries"])

    def _submit_run(
        self, shard: int, run: List[Request], collect: bool
    ) -> List[Dict[str, Any]]:
        worker = self._worker(shard)
        self._send(worker, ("batch", list(run), collect))
        if not collect:
            return []
        payload = self._sync_reply(worker)
        return list(payload["entries"])

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

    # -- shared-trace streaming ---------------------------------------------------
    def publish_trace(self, compiled: CompiledInstance) -> None:
        """Publish a compiled trace to shared memory and attach every worker."""
        self._ensure_open()
        if self._strategy.partitioned:
            raise TypeError(
                "shared-trace ranges route whole batches; use a replica strategy "
                f"(round_robin, least_loaded, cost_aware), not {self.strategy_key!r}"
            )
        if self._trace is not None:
            raise ValueError("a trace is already published on this pool")
        self._trace = SharedCompiledTrace(compiled)
        self._compiled = compiled
        handle = self._trace.handle()
        for worker in self._live():
            self._send(worker, ("attach", handle))
        for worker in self._live():
            self._sync_reply(worker)

    def submit_range(self, lo: int, hi: int, *, collect: bool = False) -> None:
        """Route arrivals ``[lo, hi)`` of the published trace to one shard.

        Workers read the arrivals straight out of shared memory — the parent
        ships two integers per batch, so routing cost is independent of batch
        size.  Pipelined like ``collect=False`` batches; :meth:`drain` is the
        barrier.
        """
        self._ensure_open()
        if self._trace is None or self._compiled is None:
            raise ValueError("no published trace; call publish_trace() first")
        if not (0 <= lo <= hi <= self._compiled.num_requests):
            raise ValueError(f"range [{lo}, {hi}) out of bounds")
        if lo == hi:
            return
        self._reap()
        costs = self._compiled.costs[lo:hi]
        shard = self._strategy.route(costs, self._depths())
        self._send(self._worker(shard), ("range", int(lo), int(hi), collect))

    def drain(self) -> int:
        """Barrier: wait for every outstanding submission; return total processed."""
        self._ensure_open()
        for worker in self._live():
            self._sync_reply(worker)
        return self.num_processed

    # -- introspection ------------------------------------------------------------
    @property
    def num_processed(self) -> int:
        """Arrivals acknowledged across all workers (call :meth:`drain` first
        for an exact count while pipelined submissions are in flight)."""
        return sum(w.processed for w in self._live())

    @property
    def num_decisions(self) -> int:
        """Decision entries acknowledged across all workers (see :attr:`num_processed`)."""
        return sum(w.decisions for w in self._live())

    def shard_stats(self) -> Dict[int, Dict[str, Any]]:
        """Non-blocking per-worker progress and queue-depth counters.

        Reaps already-available replies first (never blocks on in-flight
        work), so ``processed``/``decisions`` are the latest *acknowledged*
        counters and ``pending`` is the number of commands still awaiting a
        reply — the parent-side lag signal the service health monitor watches.
        The same shape is exported by
        :meth:`~repro.engine.streaming.StreamingSession.shard_stats` and
        :meth:`~repro.engine.streaming.ShardedStreamRouter.shard_stats`, so
        callers need not care which backend they hold.
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

    def trace_segment_names(self) -> List[str]:
        """OS-level names of the published trace segments (empty if none).

        For hygiene checks: after :meth:`close` none of these may still exist
        under ``/dev/shm``.
        """
        return [] if self._trace is None else list(self._trace.segment_names)

    def decision_logs(self) -> Dict[int, List[Dict[str, Any]]]:
        """Per-shard decision logs (requires ``retain_log=True`` workers)."""
        self.drain()
        out: Dict[int, List[Dict[str, Any]]] = {}
        for worker in self._live():
            self._send(worker, ("log",))
            out[worker.shard] = list(self._sync_reply(worker))
        return out

    def summary(self) -> Dict[str, Any]:
        """Pool-level telemetry plus one line per worker session."""
        self.drain()
        shards: Dict[int, Any] = {}
        for worker in self._live():
            self._send(worker, ("summary",))
            shards[worker.shard] = self._sync_reply(worker)
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "strategy": self.strategy_key,
            "processed": self.num_processed,
            "shards": shards,
        }

    # -- checkpointing ------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Drain and snapshot the whole pool (sessions + routing state)."""
        self.drain()
        shards: List[Optional[Dict[str, Any]]] = [None] * self.num_workers
        for worker in self._live():
            self._send(worker, ("checkpoint",))
        for worker in self._live():
            shards[worker.shard] = self._sync_reply(worker)
        return {
            "kind": POOL_CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA,
            "name": self.name,
            "algorithm": self.algorithm_key,
            "backend": self.backend,
            "record": self.record,
            "seed": self.seed,
            "num_workers": self.num_workers,
            "strategy": self.strategy_key,
            "strategy_state": self._strategy.export_state(),
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
        namespace_of: Optional[Callable[[EdgeId], str]] = None,
        retain_log: bool = True,
        start_method: Optional[str] = None,
    ) -> "ProcessShardPool":
        """Rebuild a pool (fresh worker processes) from a checkpoint document.

        The shard vector is validated against ``num_workers`` — and, under
        the ``namespace`` strategy, against the namespace partition — before
        any worker starts, so a checkpoint from a differently-sized pool
        fails with :class:`CheckpointFormatError` instead of misrouting.
        """
        validate_checkpoint(checkpoint, expected_kind=POOL_CHECKPOINT_KIND)
        num_workers = int(checkpoint["num_workers"])
        shards = checkpoint["shards"]
        if len(shards) != num_workers:
            raise CheckpointFormatError(
                f"pool checkpoint names num_workers={num_workers} but carries "
                f"{len(shards)} shard checkpoints; the file is corrupt or hand-edited"
            )
        strategy_key = checkpoint.get("strategy", "namespace")
        if strategy_key == "namespace":
            from repro.engine.streaming import validate_shard_partition

            validate_shard_partition(shards, num_workers, namespace_of, what="pool checkpoint")
        pool = cls(
            _capacities_union(shards),
            num_workers,
            checkpoint["algorithm"],
            strategy=strategy_key,
            backend=backend if backend is not None else checkpoint["backend"],
            record=bool(checkpoint["record"]),
            seed=int(checkpoint["seed"]),
            namespace_of=namespace_of,
            retain_log=retain_log,
            name=checkpoint.get("name", "shard-pool"),
            start_method=start_method,
            _worker_checkpoints=list(shards),
        )
        pool._strategy.restore_state(checkpoint.get("strategy_state") or {})
        return pool

    @classmethod
    def load(cls, path, **kwargs: Any) -> "ProcessShardPool":
        """Restore a pool from a checkpoint file written by :meth:`save`."""
        return cls.restore(load_checkpoint(path, expected_kind=POOL_CHECKPOINT_KIND), **kwargs)

    # -- lifecycle ----------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ValueError("pool is closed")

    def close(self, *, unlink: bool = True) -> None:
        """Stop every worker and release shared memory (idempotent).

        Runs on success and failure alike — the constructor and the context
        manager both funnel here — so no ``/dev/shm`` segment outlives the
        pool regardless of how it died.
        """
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
            self._workers = [None] * self.num_workers
            if self._trace is not None and unlink:
                self._trace.close()
                self._trace = None

    def terminate(self) -> None:
        """Kill the workers without draining (crash simulation; still unlinks)."""
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
            self._workers = [None] * self.num_workers
            if self._trace is not None:
                self._trace.close()
                self._trace = None

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
    """Merged capacity map of a checkpoint's shard vector (decoder included)."""
    from repro.instances.serialize import decode_edge_id

    union: Dict[EdgeId, int] = {}
    for shard in shards:
        if shard is None:
            continue
        for item in shard["capacities"]:
            union[decode_edge_id(item["edge"])] = int(item["capacity"])
    return union
