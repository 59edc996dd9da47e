"""Shared service plumbing: backend build/resume, log truncation, replay.

Both service modes — the classic trace-replay loop (``repro serve`` without
``--listen``) and the asyncio front door (:mod:`repro.service.server`) —
need the same three pieces:

* :func:`build_backend` turns a validated
  :class:`~repro.service.config.ServiceConfig` into a live serving object
  (session or shard pool), dispatching on the checkpoint's self-describing
  ``kind`` on ``--resume``;
* :func:`truncate_decision_log` trims a decision log back to the prefix the
  checkpoint attests to (a crash can land between the last durable log flush
  and the next checkpoint; resuming would otherwise append those decisions
  twice);
* :func:`serve_replay` is the replay loop itself, moved verbatim from the
  CLI so ``repro serve`` stays a thin adapter.

Keeping them here means the network path and the replay path cannot drift:
they build, resume and log through exactly the same code — which is what
makes the byte-identical-decision-log invariant checkable at all.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.service.config import ServiceConfig, ServiceConfigError

__all__ = [
    "build_backend",
    "load_trace_header",
    "serve_replay",
    "truncate_decision_log",
]


def load_trace_header(trace: str) -> Tuple[Dict[Any, int], Optional[str]]:
    """Read a trace's static header (capacities, name) without its arrivals."""
    from repro.scenarios.trace import stream_trace

    stream = stream_trace(Path(trace))
    try:
        return dict(stream.capacities), stream.name
    finally:
        stream.close()


def build_backend(config: ServiceConfig, capacities: Optional[Dict[Any, int]] = None):
    """Build (or resume) the serving backend a config describes.

    A fresh run builds a :class:`~repro.engine.streaming.StreamingSession`
    when it has one shard, else a :class:`~repro.engine.shards.
    ProcessShardPool` over ``capacities`` (read from the trace header when
    not supplied).  The pool runs its shards in this process when
    ``workers == 1`` and in worker processes otherwise.  ``--resume`` loads
    the checkpoint and dispatches on its self-describing ``kind``.  A pool
    checkpoint does not record its transport: it resumes in worker
    processes only when ``workers > 1`` is given again, and in this process
    otherwise.  A shard count repeated on the command line must agree with
    it (a namespace partition is only valid at its own count); a mismatch
    raises :class:`~repro.service.config.ServiceConfigError` naming the
    count to resume with.

    Returns the live service object; ``service.num_processed`` is the resume
    offset (0 for fresh runs).
    """
    from repro.engine.shards import INLINE, POOL_CHECKPOINT_KIND, ProcessShardPool
    from repro.engine.streaming import StreamingSession
    from repro.instances.serialize import load_checkpoint

    start_method = None if config.workers > 1 else INLINE
    if config.resume:
        document = load_checkpoint(config.checkpoint, expected_kind=None)
        if document.get("kind") == POOL_CHECKPOINT_KIND:
            written = int(document["num_shards"])
            flags = ["--shards"] * (config.shards is not None) + ["--workers"] * (config.workers > 1)
            if flags and config.num_shards != written:
                raise ServiceConfigError(
                    f"checkpoint holds {written} shards; resume with "
                    + " ".join(f"{flag} {written}" for flag in flags)
                    + f" (omitting {' and '.join(flags)} resumes its {written} shards "
                    "in this process)"
                )
            return ProcessShardPool.restore(
                document, backend=config.backend, retain_log=False, start_method=start_method
            )
        if config.num_shards > 1:
            raise ServiceConfigError(
                "checkpoint holds a single un-sharded session; resume "
                "without --shards/--workers (re-sharding a live run would "
                "misroute its state)"
            )
        return StreamingSession.restore(document, backend=config.backend, retain_log=False)

    if capacities is None:
        capacities, _ = load_trace_header(config.trace)
    backend = config.backend or "python"
    # The serve loops stream entries straight to --log; keeping a second
    # in-memory copy would grow without bound.
    if config.num_shards > 1:
        return ProcessShardPool(
            capacities,
            config.num_shards,
            algorithm=config.algorithm,
            backend=backend,
            seed=config.seed,
            retain_log=False,
            name=config.name,
            start_method=start_method,
        )
    return StreamingSession(
        capacities,
        algorithm=config.algorithm,
        backend=backend,
        seed=config.seed,
        retain_log=False,
        name=config.name,
    )


def truncate_decision_log(log: Optional[str], num_decisions: int) -> None:
    """Trim a resumed decision log to the prefix the checkpoint covers.

    A crash can land between the last durable log flush and the next
    checkpoint; resume then reprocesses those arrivals and would append
    their decisions twice.  The checkpoint knows exactly how many decision
    entries it covers, so the log is cut back to that prefix.
    """
    if log is None:
        return
    path = Path(log)
    if not path.exists():
        return
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if len(lines) > num_decisions:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:num_decisions])


def serve_replay(config: ServiceConfig, out) -> int:
    """Replay a JSONL trace through the serving backend (the classic loop).

    Reads arrivals, micro-batches them into the backend, appends decisions
    to ``--log``, writes a checkpoint every ``--checkpoint-every`` arrivals
    and once more at the end.  ``--resume`` restores the checkpoint and
    skips the arrivals it already processed, so an interrupted serve
    continues exactly where it stopped — the combined decision log is
    identical to an uninterrupted run.  SIGTERM triggers a graceful
    shutdown: the in-flight micro-batch drains, the checkpoint is written,
    and the loop returns 0 — so ``--resume`` continues seamlessly.
    """
    from repro.scenarios.trace import stream_trace

    stream = stream_trace(Path(config.trace))
    try:
        service = build_backend(config, capacities=stream.capacities)
    except BaseException:
        stream.close()
        raise
    skip = service.num_processed if config.resume else 0

    if config.resume:
        truncate_decision_log(config.log, service.num_decisions)

    # Graceful shutdown: SIGTERM sets a flag the serve loop checks between
    # micro-batches — the in-flight batch drains, the checkpoint is written,
    # and --resume later continues exactly where the signal landed.
    shutdown_requested = False

    def _on_sigterm(signum, frame):  # pragma: no cover - signal timing
        nonlocal shutdown_requested
        shutdown_requested = True

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread (embedded) use
        previous_sigterm = None

    log_fh = open(config.log, "a", encoding="utf-8") if config.log is not None else None
    processed = 0
    since_checkpoint = 0
    try:

        def save_checkpoint() -> None:
            # Durability order: the decision lines covered by a checkpoint
            # must be on disk *before* the checkpoint claims them, or a crash
            # right after the (atomic) checkpoint write would lose decisions
            # that --resume will then never replay.
            if log_fh is not None:
                log_fh.flush()
                os.fsync(log_fh.fileno())
            service.save(config.checkpoint)

        chunk = []
        budget = config.max_arrivals if config.max_arrivals is not None else float("inf")

        def flush(batch) -> None:
            nonlocal processed, since_checkpoint
            entries = service.submit_batch(batch)
            if log_fh is not None:
                for entry in entries:
                    log_fh.write(json.dumps(entry, sort_keys=True) + "\n")
            processed += len(batch)
            since_checkpoint += len(batch)
            if (
                config.checkpoint is not None
                and config.checkpoint_every > 0
                and since_checkpoint >= config.checkpoint_every
            ):
                save_checkpoint()
                since_checkpoint = 0

        # Skip the arrivals the checkpoint attests to as raw lines — no JSON
        # decode, no Request construction — so resume costs O(remaining).
        stream.skip(skip)
        for request in stream:
            if processed >= budget or shutdown_requested:
                break
            chunk.append(request)
            if len(chunk) >= min(config.batch, budget - processed):
                flush(chunk)
                chunk = []
        if chunk:
            flush(chunk)
        if config.checkpoint is not None:
            save_checkpoint()
        summary = service.summary()
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        if log_fh is not None:
            log_fh.close()
        stream.close()
        # Stops a pool's workers, on the success and failure paths alike.
        service.close()

    if shutdown_requested:
        print(
            f"SIGTERM: drained in-flight batch and "
            f"{'checkpointed' if config.checkpoint is not None else 'stopped'} "
            f"after {processed} arrivals this run",
            file=out,
        )
    verb = "resumed at" if config.resume else "served from"
    total = summary.get("processed", processed + skip)
    print(
        f"{verb} arrival {skip}: processed {processed} arrivals ({total} total)",
        file=out,
    )
    print(json.dumps(summary, sort_keys=True, indent=2), file=out)
    return 0
