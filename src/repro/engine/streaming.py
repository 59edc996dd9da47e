"""The streaming service layer: long-lived incremental sessions with checkpoints.

Everything below :class:`~repro.engine.runtime.SimulationEngine` is batch
shaped — build the whole instance, then run it.  The paper's algorithms are
*online*, though: requests arrive one at a time and decisions are
irrevocable, which is exactly the shape of a serving system.  This module
gives the runtime that shape:

* :class:`StreamingSession` — a long-lived session around one online
  algorithm.  Arrivals are accepted incrementally (:meth:`~StreamingSession.
  submit` for single requests, :meth:`~StreamingSession.submit_batch` for
  micro-batches routed through the compiled fast path), and the session's
  full state — weights, fractions, admitted sets, RNG state, interning
  tables — can be snapshotted to a versioned, JSON-serialisable
  **checkpoint** (:meth:`~StreamingSession.checkpoint` / :meth:`~
  StreamingSession.save`) and restored later, in another process, on either
  weight backend (:meth:`~StreamingSession.restore` / :meth:`~
  StreamingSession.load`).  A restored session's future decision log is
  identical (to 1e-9, in practice bit-for-bit) to an uninterrupted run.
* :class:`ShardedStreamRouter` — N independent sessions over a namespaced
  edge set.  Edges are partitioned by namespace (``"b0:edge"`` → ``"b0"``,
  configurable), every namespace maps deterministically to one shard
  (:func:`repro.utils.rng.stable_seed`, so the mapping survives process
  restarts and ``PYTHONHASHSEED``), and each shard gets its own derived
  seed.  Router checkpoints are simply the vector of shard checkpoints.

The durable-state contract: a checkpoint carries the *logical* state the
future evolution depends on and nothing else.  Per-arrival diagnostics
(:class:`~repro.engine.backends.ArrivalOutcome` deltas, augmentation
history) are reproducible artefacts, not state — restored decisions carry
``outcome=None`` exactly like a ``record=False`` run.  Schema versioning
lives in :mod:`repro.instances.serialize` (``CHECKPOINT_SCHEMA``): loaders
reject versions they do not know instead of guessing.

``repro serve`` (the CLI front-end) replays a JSONL trace through a session
or router with periodic checkpoints and ``--resume`` support; see
``examples/streaming_service.py`` for the library-level tour.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.engine.backends import BackendSpec, resolve_backend_name, resolve_record_flag
from repro.engine.registry import Registry
from repro.instances.compiled import compile_sequence, intern_edges
from repro.instances.request import EdgeId, Request, RequestSequence
from repro.instances.serialize import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    CheckpointFormatError,
    decode_edge_id,
    dump_checkpoint,
    encode_edge_id,
    load_checkpoint,
    validate_checkpoint,
)
from repro.utils.rng import as_generator, stable_seed

__all__ = [
    "StreamingSession",
    "ShardedStreamRouter",
    "STREAMING_ALGORITHMS",
    "ROUTER_CHECKPOINT_KIND",
    "default_namespace",
    "validate_shard_partition",
]

#: The ``kind`` field of a router checkpoint (a vector of session checkpoints).
ROUTER_CHECKPOINT_KIND = "streaming-router-checkpoint"

#: Builders for the streaming-capable algorithms.  Streaming sessions cannot
#: inspect a full instance up front (there is none), so unlike
#: :data:`~repro.engine.registry.ADMISSION_ALGORITHMS` these builders take the
#: capacity mapping directly and never infer weighted/unweighted from costs —
#: pass ``unweighted=True`` / ``weighted=False`` explicitly when that is meant.
STREAMING_ALGORITHMS: Registry = Registry("streaming algorithm")


@STREAMING_ALGORITHMS.register("fractional")
def _build_fractional(capacities, *, random_state, backend, record, **kwargs):
    from repro.core.fractional import FractionalAdmissionControl

    return FractionalAdmissionControl(capacities, backend=backend, record=record, **kwargs)


@STREAMING_ALGORITHMS.register("doubling-fractional")
def _build_doubling_fractional(capacities, *, random_state, backend, record, **kwargs):
    from repro.core.doubling import DoublingFractionalAdmissionControl

    return DoublingFractionalAdmissionControl(
        capacities, backend=backend, record=record, **kwargs
    )


@STREAMING_ALGORITHMS.register("randomized")
def _build_randomized(capacities, *, random_state, backend, record, **kwargs):
    # The rounding consumes shadow deltas, so `record` does not apply here.
    from repro.core.randomized import RandomizedAdmissionControl

    return RandomizedAdmissionControl(
        capacities, random_state=random_state, backend=backend, **kwargs
    )


@STREAMING_ALGORITHMS.register("doubling")
def _build_doubling(capacities, *, random_state, backend, record, **kwargs):
    from repro.core.doubling import DoublingAdmissionControl

    return DoublingAdmissionControl(
        capacities, random_state=random_state, backend=backend, **kwargs
    )


def _normalize_decision(decision: Any) -> Dict[str, Any]:
    """One JSON-able log entry per decision, for both algorithm families.

    Fractional algorithms log ``(id, cost class, fraction rejected)``;
    integral ones log ``(id, accept/reject/preempt, triggering arrival)``.
    """
    if hasattr(decision, "cost_class"):
        return {
            "id": int(decision.request_id),
            "event": decision.cost_class,
            "fraction": float(decision.fraction_rejected),
        }
    return {
        "id": int(decision.request_id),
        "event": decision.kind,
        "at": None if decision.at_request is None else int(decision.at_request),
    }


class StreamingSession:
    """A long-lived admission-control session over an unbounded arrival stream.

    Parameters
    ----------
    capacities:
        Edge-capacity mapping.  Its iteration order fixes the interning used
        by the weight backend *and* by every micro-batch compilation, and is
        recorded in checkpoints so a restored session interns identically.
        The session interns it once (:func:`~repro.instances.compiled.
        intern_edges`); every micro-batch compiles against that one
        interning, so a batch costs its own path length, not ``m``.
    algorithm:
        A :data:`STREAMING_ALGORITHMS` key (``"fractional"``,
        ``"randomized"``, ``"doubling"``, ``"doubling-fractional"``) or an
        already-built algorithm object.  Sessions around externally-built
        objects stream fine but cannot be checkpointed (the checkpoint could
        not name how to rebuild them).
    backend / record:
        Weight-backend spec and diagnostics mode, as everywhere else.
    seed:
        Integer seed for the algorithm's RNG (randomized rounding).  Stored
        in checkpoints for provenance; the *exact* RNG state is checkpointed
        separately, so resumed coin flips are bit-identical regardless.
    algorithm_kwargs:
        Extra keyword arguments for the algorithm builder (must be
        JSON-serialisable for the session to be checkpointable).
    retain_log:
        Keep the normalized decision entries in memory (the default; what
        :meth:`decision_log` returns).  Pass ``False`` for unbounded serving
        loops that stream entries elsewhere (``repro serve`` appends them to
        a file): :meth:`submit`/:meth:`submit_batch` still return each
        batch's entries and :attr:`num_decisions` still counts them, but
        nothing accumulates in the session.
    vectorized:
        Route compiled micro-batches through the whole-trace executor
        (:mod:`repro.engine.vectorized`) when the algorithm supports it.
        A runtime preference like ``retain_log`` — it never changes a
        decision, so it is not checkpoint state and is chosen per session.
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        algorithm: Union[str, Any] = "fractional",
        *,
        backend: BackendSpec = None,
        record: Optional[bool] = None,
        seed: Optional[int] = None,
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        retain_log: bool = True,
        vectorized: bool = True,
        name: str = "streaming-session",
    ):
        self._interning = intern_edges(capacities)
        if not self._interning.num_edges:
            raise ValueError("a streaming session needs at least one edge")
        self.backend = resolve_backend_name(backend)
        self.record = resolve_record_flag(backend, record)
        self.seed = None if seed is None else int(seed)
        self.vectorized = bool(vectorized)
        self.name = name
        self._kwargs: Dict[str, Any] = dict(algorithm_kwargs or {})
        self.num_processed = 0

        if isinstance(algorithm, str):
            self.algorithm_key: Optional[str] = algorithm.strip().lower()
            build = STREAMING_ALGORITHMS.get(self.algorithm_key)
            self._algorithm = build(
                self.capacities(),
                random_state=as_generator(self.seed),
                backend=backend if backend is not None else self.backend,
                record=record,
                **self._kwargs,
            )
        else:
            self.algorithm_key = None
            self._algorithm = algorithm
        self.retain_log = bool(retain_log)
        self._logged = 0
        self._decision_log: List[Dict[str, Any]] = []

    # -- introspection ------------------------------------------------------------
    @property
    def algorithm(self) -> Any:
        """The live algorithm object (read-only use recommended)."""
        return self._algorithm

    def capacities(self) -> Dict[EdgeId, int]:
        """Copy of the session's capacity mapping (interning order preserved)."""
        return self._interning.capacities_by_id()

    def decision_log(self) -> List[Dict[str, Any]]:
        """The normalized, JSON-able decision log accumulated so far.

        Requires ``retain_log=True`` (the default); retention-free sessions
        stream entries through the :meth:`submit` return values instead.
        """
        if not self.retain_log:
            raise RuntimeError(
                "decision_log() is unavailable with retain_log=False; consume the "
                "entries submit()/submit_batch() return instead"
            )
        self._sync_log()
        return list(self._decision_log)

    @property
    def num_decisions(self) -> int:
        """Number of decision entries logged so far (arrivals + preemptions)."""
        self._sync_log()
        return self._logged

    def _sync_log(self) -> List[Dict[str, Any]]:
        """Pull decisions the algorithm appended since the last sync.

        Reads only the tail (``decisions_since``), so a poll after every
        micro-batch costs O(batch), not O(run length) — the difference
        between linear and quadratic over an unbounded stream.
        """
        fresh = [
            _normalize_decision(d)
            for d in self._algorithm.decisions_since(self._logged)
        ]
        self._logged += len(fresh)
        if self.retain_log:
            self._decision_log.extend(fresh)
        return fresh

    # -- streaming ----------------------------------------------------------------
    def _reject_processed(self, requests: Iterable[Request]) -> None:
        """Raise ValueError if any of ``requests`` was processed before.

        A read-only query, run before the algorithm sees the first arrival,
        so a rejected batch leaves no trace in the engine.  Algorithms
        without the ``was_processed`` query check ids on their own.
        """
        was_processed = getattr(self._algorithm, "was_processed", None)
        if was_processed is None:
            return
        for request in requests:
            if was_processed(request.request_id):
                raise ValueError(f"request id {request.request_id} was already processed")

    def submit(self, request: Request) -> Dict[str, Any]:
        """Process one arrival; returns the normalized decision entry.

        Preemptions triggered by the arrival appear in :meth:`decision_log`
        (they are decisions about *other* requests), not in the return value.
        Like :meth:`submit_batch`, an edge without a capacity or an id
        processed before raises :class:`ValueError` before the algorithm
        sees the arrival.
        """
        edge_index = self._interning.edge_index
        unknown = [e for e in request.ordered_edges if e not in edge_index]
        if unknown:
            raise ValueError(f"request {request.request_id} uses unknown edges {unknown[:3]!r}")
        self._reject_processed((request,))
        decision = self._algorithm.process(request)
        self.num_processed += 1
        self._sync_log()
        return _normalize_decision(decision)

    def submit_batch(self, requests: Iterable[Request]) -> List[Dict[str, Any]]:
        """Process a micro-batch through the compiled fast path.

        The batch is compiled against the session's interning (the weight
        backend's order, so no per-arrival translation; only the batch's own
        paths are built) and streamed through the algorithm's
        ``process_compiled_range`` (the whole-trace executor when the session
        is ``vectorized``) or ``process_indexed``; algorithms without an
        indexed path fall back to per-request processing.  Decisions are
        identical to submitting one by one — batching is purely mechanical.

        The batch is atomic: ids repeated within it, ids processed before
        and edges without a capacity raise :class:`ValueError` before the
        algorithm sees its first arrival.
        Returns every decision entry the batch produced, preemptions
        included.
        """
        batch = RequestSequence(requests)  # rejects ids repeated in the batch
        if not batch:
            return []
        compiled = compile_sequence(batch, self._interning, name=f"{self.name}-batch")
        self._reject_processed(batch)
        if hasattr(self._algorithm, "process_compiled_range"):
            self._algorithm.process_compiled_range(
                compiled, 0, compiled.num_requests, vectorized=self.vectorized
            )
        elif hasattr(self._algorithm, "process_indexed"):
            for i in range(compiled.num_requests):
                self._algorithm.process_indexed(compiled, i)
        else:
            for request in batch:
                self._algorithm.process(request)
        self.num_processed += len(batch)
        return self._sync_log()

    def submit_compiled_range(self, compiled, lo: int, hi: int) -> List[Dict[str, Any]]:
        """Process arrivals ``lo..hi`` of an already-compiled trace.

        The zero-copy sibling of :meth:`submit_batch`: when the caller holds a
        :class:`~repro.instances.compiled.CompiledInstance` (recorded trace,
        shared-memory segment mapped by a shard worker), streaming a range
        through it skips the per-batch ``compile_sequence``.  The compiled
        interning may differ from the session's — the algorithm's range path
        translates (or fast-paths the identical-order case).  Decisions are
        identical to :meth:`submit_batch` over the same requests.
        """
        if not 0 <= lo <= hi <= compiled.num_requests:
            raise ValueError(
                f"range [{lo}, {hi}) out of bounds for {compiled.num_requests} requests"
            )
        if lo == hi:
            return []
        if hasattr(self._algorithm, "process_compiled_range"):
            self._algorithm.process_compiled_range(
                compiled, lo, hi, vectorized=self.vectorized
            )
        elif hasattr(self._algorithm, "process_indexed"):
            for i in range(lo, hi):
                self._algorithm.process_indexed(compiled, i)
        else:
            for i in range(lo, hi):
                self._algorithm.process(compiled.request(i))
        self.num_processed += hi - lo
        return self._sync_log()

    def submit_stream(
        self, requests: Iterable[Request], *, batch_size: int = 64
    ) -> int:
        """Drain an arrival iterable through :meth:`submit_batch` chunks.

        Returns the number of arrivals processed.  ``batch_size=1`` degrades
        to per-request submission.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        count = 0
        chunk: List[Request] = []
        for request in requests:
            chunk.append(request)
            if len(chunk) >= batch_size:
                self.submit_batch(chunk)
                count += len(chunk)
                chunk = []
        if chunk:
            self.submit_batch(chunk)
            count += len(chunk)
        return count

    def shard_stats(self) -> Dict[int, Dict[str, Any]]:
        """Single-shard progress counters in the pool's ``shard_stats`` shape.

        An in-process session is always "shard 0, alive, nothing pending";
        exporting the same shape as
        :meth:`~repro.engine.shards.ProcessShardPool.shard_stats` lets the
        service health monitor treat every backend uniformly.
        """
        return {
            0: {
                "pid": None,
                "alive": True,
                "pending": 0,
                "processed": self.num_processed,
                "decisions": self.num_decisions,
            }
        }

    # -- results ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """One JSON-able line of session telemetry."""
        out: Dict[str, Any] = {
            "name": self.name,
            "algorithm": self.algorithm_key or type(self._algorithm).__name__,
            "backend": self.backend,
            "processed": self.num_processed,
            "decisions": self.num_decisions,
        }
        if hasattr(self._algorithm, "rejection_cost"):
            out["rejection_cost"] = float(self._algorithm.rejection_cost())
        if hasattr(self._algorithm, "fractional_cost"):
            out["fractional_cost"] = float(self._algorithm.fractional_cost())
        return out

    # -- checkpointing ------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the session as a versioned, JSON-serialisable document."""
        if self.algorithm_key is None:
            raise TypeError(
                "sessions around externally-built algorithm objects cannot be "
                "checkpointed; construct the session from a STREAMING_ALGORITHMS key"
            )
        if not hasattr(self._algorithm, "export_state"):
            raise TypeError(
                f"algorithm {self.algorithm_key!r} does not support state export"
            )
        self._sync_log()
        return {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA,
            "name": self.name,
            "algorithm": self.algorithm_key,
            "algorithm_kwargs": self._kwargs,
            "backend": self.backend,
            "record": self.record,
            "seed": self.seed,
            "num_processed": self.num_processed,
            "capacities": [
                {"edge": encode_edge_id(e), "capacity": c}
                for e, c in self.capacities().items()
            ],
            "algorithm_state": self._algorithm.export_state(),
        }

    @classmethod
    def restore(
        cls,
        checkpoint: Mapping[str, Any],
        *,
        backend: BackendSpec = None,
        retain_log: bool = True,
    ) -> "StreamingSession":
        """Rebuild a session from a :meth:`checkpoint` document.

        ``backend`` overrides the checkpointed backend (checkpoints are
        backend-portable: weights are bit-identical across backends).
        ``retain_log`` is a runtime preference, not state, so it is chosen
        per restore.
        """
        validate_checkpoint(checkpoint)
        capacities = {
            decode_edge_id(item["edge"]): int(item["capacity"])
            for item in checkpoint["capacities"]
        }
        session = cls(
            capacities,
            algorithm=checkpoint["algorithm"],
            backend=backend if backend is not None else checkpoint["backend"],
            record=bool(checkpoint["record"]),
            seed=checkpoint["seed"],
            algorithm_kwargs=dict(checkpoint.get("algorithm_kwargs") or {}),
            retain_log=retain_log,
            name=checkpoint.get("name", "streaming-session"),
        )
        session._algorithm.restore_state(checkpoint["algorithm_state"])
        session.num_processed = int(checkpoint["num_processed"])
        session._sync_log()
        return session

    def save(self, path) -> Any:
        """Write :meth:`checkpoint` to ``path`` (atomic write-then-rename)."""
        return dump_checkpoint(self.checkpoint(), path)

    @classmethod
    def load(
        cls, path, *, backend: BackendSpec = None, retain_log: bool = True
    ) -> "StreamingSession":
        """Restore a session from a checkpoint file written by :meth:`save`."""
        return cls.restore(load_checkpoint(path), backend=backend, retain_log=retain_log)


def default_namespace(edge: EdgeId) -> str:
    """Namespace of an edge id: the prefix before the first ``":"``.

    String ids like ``"b0:e3"`` (the adversarial-mix convention) map to
    ``"b0"``.  Ids with no ``":"`` (plain strings, the network layer's
    ``(u, v)`` tuples) all share the single ``"default"`` namespace: a
    multi-edge request must land inside one shard, and without declared
    namespaces there is no partition that can guarantee it — one edge per
    namespace would reject the first multi-edge request it sees.  Such
    workloads shard trivially (one live shard) under the default; pass a
    topology-aware ``namespace_of`` to actually spread them.
    """
    text = edge if isinstance(edge, str) else repr(edge)
    return text.split(":", 1)[0] if ":" in text else "default"


def validate_shard_partition(
    shards: List[Optional[Mapping[str, Any]]],
    num_shards: int,
    namespace_of: Optional[Callable[[EdgeId], str]] = None,
    *,
    what: str = "checkpoint",
) -> None:
    """Check a vector of shard checkpoints against a shard count.

    A namespace-partitioned checkpoint is only meaningful at the shard count
    it was written with: ``stable_seed(namespace) % num_shards`` changes with
    ``num_shards``, so resuming a 4-shard checkpoint as a 2-shard router would
    silently misroute every future arrival (new traffic hashed to shard 1 of
    2, historical weights sitting in shard 3 of 4).  This validates both the
    vector length and — for every edge in every non-empty shard — that the
    edge's namespace still hashes to the shard index it was checkpointed in.
    Raises :class:`~repro.instances.serialize.CheckpointFormatError` on any
    mismatch, naming the offending shard/namespace.
    """
    resolve = namespace_of or default_namespace
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
            namespace = resolve(edge)
            expected = stable_seed(namespace, "stream-shard") % int(num_shards)
            if expected != index:
                raise CheckpointFormatError(
                    f"{what} shard {index} holds edge {edge!r} whose namespace "
                    f"{namespace!r} hashes to shard {expected} of {num_shards}; the "
                    "checkpoint was written under a different partition (changed "
                    "shard count or namespace_of) and cannot be resumed safely"
                )


class ShardedStreamRouter:
    """Partition a namespaced edge set across N independent streaming sessions.

    Each edge belongs to a *namespace* (:func:`default_namespace` by default;
    pass ``namespace_of`` to override), each namespace maps to one shard via
    ``stable_seed(namespace, "stream-shard") % num_shards`` — deterministic
    across processes and hash seeds — and each shard is a fully independent
    :class:`StreamingSession` with its own derived seed
    (``stable_seed(seed, "stream-shard", shard_index)``).  Requests must stay
    within one namespace's shard: a request whose edges span shards is
    rejected with :class:`ValueError` (shards share no state to coordinate
    it).

    Shards with no edges stay ``None`` and never receive traffic, so any
    ``num_shards`` works regardless of how many namespaces exist.
    """

    def __init__(
        self,
        capacities: Mapping[EdgeId, int],
        num_shards: int,
        algorithm: str = "fractional",
        *,
        backend: BackendSpec = None,
        record: Optional[bool] = None,
        seed: int = 0,
        namespace_of: Optional[Callable[[EdgeId], str]] = None,
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        retain_log: bool = True,
        vectorized: bool = True,
        name: str = "stream-router",
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self.algorithm_key = algorithm
        self.backend = resolve_backend_name(backend)
        self.record = resolve_record_flag(backend, record)
        self.seed = int(seed)
        self.name = name
        self._namespace_of = namespace_of or default_namespace

        shard_caps: List[Dict[EdgeId, int]] = [{} for _ in range(self.num_shards)]
        for edge, cap in capacities.items():
            shard_caps[self._shard_of_namespace(self._namespace_of(edge))][edge] = int(cap)
        self._sessions: List[Optional[StreamingSession]] = [
            StreamingSession(
                caps,
                algorithm=algorithm,
                backend=backend,
                record=record,
                seed=stable_seed(self.seed, "stream-shard", k),
                algorithm_kwargs=algorithm_kwargs,
                retain_log=retain_log,
                vectorized=vectorized,
                name=f"{name}/shard{k}",
            )
            if caps
            else None
            for k, caps in enumerate(shard_caps)
        ]

    def _shard_of_namespace(self, namespace: str) -> int:
        return stable_seed(namespace, "stream-shard") % self.num_shards

    # -- routing -------------------------------------------------------------------
    def shard_of(self, request: Request) -> int:
        """The shard index a request routes to (ValueError if it spans shards)."""
        shards = {self._shard_of_namespace(self._namespace_of(e)) for e in request.ordered_edges}
        if len(shards) != 1:
            raise ValueError(
                f"request {request.request_id} spans shards {sorted(shards)}; "
                "sharded streaming requires single-namespace requests"
            )
        return shards.pop()

    def session(self, shard: int) -> StreamingSession:
        """The live session of one shard (ValueError for empty shards)."""
        sess = self._sessions[shard]
        if sess is None:
            raise ValueError(f"shard {shard} has no edges and therefore no session")
        return sess

    def sessions(self) -> List[Tuple[int, StreamingSession]]:
        """``(shard index, session)`` pairs for every non-empty shard."""
        return [(k, s) for k, s in enumerate(self._sessions) if s is not None]

    @property
    def num_processed(self) -> int:
        """Total arrivals processed across all shards."""
        return sum(s.num_processed for _, s in self.sessions())

    @property
    def num_decisions(self) -> int:
        """Total decision entries logged across all shards."""
        return sum(s.num_decisions for _, s in self.sessions())

    def submit(self, request: Request) -> Dict[str, Any]:
        """Route one arrival to its shard's session."""
        return self.session(self.shard_of(request)).submit(request)

    def submit_batch(self, requests: Iterable[Request]) -> List[Dict[str, Any]]:
        """Route a micro-batch, emitting decisions in *arrival* order.

        The batch is split into maximal runs of consecutive same-shard
        arrivals and each run streams through its shard's compiled
        micro-batch path.  Emitting run by run keeps the returned entries in
        arrival order, which makes the combined decision stream a function of
        the arrival sequence alone — independent of how callers chop it into
        batches, and therefore identical across a checkpoint/resume whose
        batch boundaries shifted.  (Grouping the whole batch per shard would
        be marginally faster but would order entries by shard within each
        batch, breaking exactly that guarantee.)
        """
        out: List[Dict[str, Any]] = []
        run: List[Request] = []
        run_shard: Optional[int] = None
        for request in requests:
            shard = self.shard_of(request)
            if run and shard != run_shard:
                out.extend(self.session(run_shard).submit_batch(run))
                run = []
            run_shard = shard
            run.append(request)
        if run:
            out.extend(self.session(run_shard).submit_batch(run))
        return out

    def decision_logs(self) -> Dict[int, List[Dict[str, Any]]]:
        """Per-shard normalized decision logs."""
        return {k: s.decision_log() for k, s in self.sessions()}

    def shard_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-shard progress counters in the pool's ``shard_stats`` shape.

        In-process shards are always alive with nothing pending; the uniform
        shape (see :meth:`~repro.engine.shards.ProcessShardPool.shard_stats`)
        is what lets the service health monitor watch any backend.
        """
        return {
            k: {
                "pid": None,
                "alive": True,
                "pending": 0,
                "processed": s.num_processed,
                "decisions": s.num_decisions,
            }
            for k, s in self.sessions()
        }

    def summary(self) -> Dict[str, Any]:
        """Router-level telemetry plus one line per shard."""
        return {
            "name": self.name,
            "num_shards": self.num_shards,
            "processed": self.num_processed,
            "shards": {k: s.summary() for k, s in self.sessions()},
        }

    # -- checkpointing ---------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the router: envelope plus one checkpoint per shard."""
        return {
            "kind": ROUTER_CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA,
            "name": self.name,
            "algorithm": self.algorithm_key,
            "backend": self.backend,
            "record": self.record,
            "seed": self.seed,
            "num_shards": self.num_shards,
            "shards": [None if s is None else s.checkpoint() for s in self._sessions],
        }

    @classmethod
    def restore(
        cls,
        checkpoint: Mapping[str, Any],
        *,
        backend: BackendSpec = None,
        namespace_of: Optional[Callable[[EdgeId], str]] = None,
        retain_log: bool = True,
    ) -> "ShardedStreamRouter":
        """Rebuild a router (and every shard session) from a checkpoint.

        ``namespace_of`` is a callable and therefore not serialisable; pass
        the same one used originally if it was customised.

        The shard partition is validated before any session is rebuilt: a
        checkpoint written at a different shard count (or under a different
        ``namespace_of``) raises
        :class:`~repro.instances.serialize.CheckpointFormatError` instead of
        silently misrouting namespaces whose hash slot moved.
        """
        validate_checkpoint(checkpoint, expected_kind=ROUTER_CHECKPOINT_KIND)
        validate_shard_partition(
            list(checkpoint["shards"]),
            int(checkpoint["num_shards"]),
            namespace_of,
            what="router checkpoint",
        )
        router = cls.__new__(cls)
        router.num_shards = int(checkpoint["num_shards"])
        router.algorithm_key = checkpoint["algorithm"]
        router.backend = (
            resolve_backend_name(backend) if backend is not None else checkpoint["backend"]
        )
        router.record = bool(checkpoint["record"])
        router.seed = int(checkpoint["seed"])
        router.name = checkpoint.get("name", "stream-router")
        router._namespace_of = namespace_of or default_namespace
        router._sessions = [
            None
            if shard is None
            else StreamingSession.restore(shard, backend=backend, retain_log=retain_log)
            for shard in checkpoint["shards"]
        ]
        return router

    def save(self, path) -> Any:
        """Write :meth:`checkpoint` to ``path`` (atomic write-then-rename)."""
        return dump_checkpoint(self.checkpoint(), path)

    @classmethod
    def load(
        cls,
        path,
        *,
        backend: BackendSpec = None,
        namespace_of: Optional[Callable[[EdgeId], str]] = None,
        retain_log: bool = True,
    ) -> "ShardedStreamRouter":
        """Restore a router from a checkpoint file written by :meth:`save`."""
        return cls.restore(
            load_checkpoint(path, expected_kind=ROUTER_CHECKPOINT_KIND),
            backend=backend,
            namespace_of=namespace_of,
            retain_log=retain_log,
        )

    @classmethod
    def for_instance(cls, instance, num_shards: int, **kwargs) -> "ShardedStreamRouter":
        """Build a router over an instance's capacities (requests stream separately)."""
        return cls(instance.capacities, num_shards, **kwargs)
