"""The streaming service layer: long-lived incremental sessions with checkpoints.

The trial engine (:func:`~repro.analysis.trials.run_trials`) is batch
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

Sharding a namespaced edge set across N such sessions, in this process or in
worker processes, is :class:`~repro.engine.shards.ProcessShardPool`.

The durable-state contract: a checkpoint carries the *logical* state the
future evolution depends on and nothing else, as plain JSON columns (one
list per field: request ids, CSR paths, costs, weights, classes, decision
kinds), never one object per request.  Per-arrival diagnostics
(:class:`~repro.engine.backends.ArrivalOutcome` deltas, kills and step
counts) are not state, and the one algorithm that records them drops
each once it has been rounded, so the envelope carries no diagnostics mode
either.  Restored decisions carry ``outcome=None``.  Schema versioning
lives in :mod:`repro.instances.serialize` (``CHECKPOINT_SCHEMA``): loaders
reject versions they do not know instead of guessing.  Saves are fsynced
before the rename that publishes them.

``repro serve`` (the CLI front-end) replays a JSONL trace through a session
or shard pool with periodic checkpoints and ``--resume`` support; see
``examples/streaming_service.py`` for the library-level tour.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.engine.backends import BackendSpec, resolve_backend_name
from repro.engine.registry import Registry
from repro.instances.compiled import compile_sequence, intern_edges
from repro.instances.request import EdgeId, Request, RequestSequence
from repro.instances.serialize import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    decode_edge_id,
    dump_checkpoint,
    encode_edge_id,
    load_checkpoint,
    validate_checkpoint,
)
from repro.utils.rng import as_generator

__all__ = ["StreamingSession", "STREAMING_ALGORITHMS"]

#: Builders for the streaming-capable algorithms.  Streaming sessions cannot
#: inspect a full instance up front (there is none), so unlike
#: :data:`~repro.engine.registry.ADMISSION_ALGORITHMS` these builders take the
#: capacity mapping directly and never infer weighted/unweighted from costs —
#: pass ``unweighted=True`` / ``weighted=False`` explicitly when that is meant.
STREAMING_ALGORITHMS: Registry = Registry("streaming algorithm")


@STREAMING_ALGORITHMS.register("fractional")
def _build_fractional(capacities, *, random_state, backend, **kwargs):
    from repro.core.fractional import FractionalAdmissionControl

    return FractionalAdmissionControl(capacities, backend=backend, **kwargs)


@STREAMING_ALGORITHMS.register("doubling-fractional")
def _build_doubling_fractional(capacities, *, random_state, backend, **kwargs):
    from repro.core.doubling import DoublingFractionalAdmissionControl

    return DoublingFractionalAdmissionControl(capacities, backend=backend, **kwargs)


@STREAMING_ALGORITHMS.register("randomized")
def _build_randomized(capacities, *, random_state, backend, **kwargs):
    from repro.core.randomized import RandomizedAdmissionControl

    return RandomizedAdmissionControl(
        capacities, random_state=random_state, backend=backend, **kwargs
    )


@STREAMING_ALGORITHMS.register("doubling")
def _build_doubling(capacities, *, random_state, backend, **kwargs):
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
    backend:
        Weight-backend spec, as everywhere else.
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

    def drain(self) -> int:
        """The pool's barrier, for uniform callers: a session has nothing in flight."""
        return self.num_processed

    def close(self) -> None:
        """The pool's shutdown, for uniform callers: a session holds no workers."""

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
            seed=checkpoint["seed"],
            algorithm_kwargs=dict(checkpoint.get("algorithm_kwargs") or {}),
            retain_log=retain_log,
            name=checkpoint.get("name", "streaming-session"),
        )
        session._algorithm.restore_state(checkpoint["algorithm_state"])
        session.num_processed = int(checkpoint["num_processed"])
        if retain_log:
            session._sync_log()
        else:
            # No log to fill: count the restored decisions, do not normalize them.
            session._logged = len(session._algorithm.decisions_since(0))
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
