"""One serving core for ``repro serve``, and its trace-replay front end.

Both service modes — the classic trace-replay loop (``repro serve`` without
``--listen``) and the asyncio front door (:mod:`repro.service.server`) —
drive one :class:`ServingRun`, which owns the engine side of a run:

* :func:`build_backend` turns a validated
  :class:`~repro.service.config.ServiceConfig` into a live serving object
  (session or shard pool), dispatching on the checkpoint's self-describing
  ``kind`` on ``--resume``;
* :func:`truncate_decision_log` trims a decision log back to the prefix the
  checkpoint attests to (a crash can land between the last durable log flush
  and the next checkpoint; resuming would otherwise append those decisions
  twice);
* :class:`ServingRun` decides each batch, appends its entries to ``--log``,
  checkpoints every ``--checkpoint-every`` arrivals behind a log fsync, and
  finishes the run (drain, final checkpoint, close, report);
* :func:`serve_replay` is the replay front end: the trace loop and its
  SIGTERM flag, so ``repro serve`` stays a thin adapter.

With one copy of the protocol the network path and the replay path cannot
drift: they build, resume, log and checkpoint through exactly the same code
— which is what makes the byte-identical-decision-log invariant checkable
at all.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.config import ServiceConfig, ServiceConfigError

__all__ = [
    "ServingRun",
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


class ServingRun:
    """The engine side of one ``repro serve`` run, shared by both front ends.

    Builds (or, with ``--resume``, restores) the backend and trims a resumed
    log to the prefix its checkpoint covers; :meth:`submit` decides a batch
    and appends its entries to ``--log``; :meth:`checkpoint_if_due` keeps the
    ``--checkpoint-every`` cadence; :meth:`save` is the durability barrier;
    :meth:`finish` drains, checkpoints, closes and reports.  ``skip`` is the
    resume offset and ``processed`` counts this run's arrivals.
    """

    def __init__(self, config: ServiceConfig, capacities: Optional[Dict[Any, int]] = None):
        self.config = config
        self.backend = build_backend(config, capacities=capacities)
        self.skip = self.backend.num_processed if config.resume else 0
        self.processed = 0
        self._since_checkpoint = 0
        if config.resume:
            truncate_decision_log(config.log, self.backend.num_decisions)
        self._log = open(config.log, "a", encoding="utf-8") if config.log is not None else None

    def submit(self, requests: List[Any]) -> List[Dict[str, Any]]:
        """Decide one batch, append its entries to ``--log``, count its arrivals."""
        entries = self.backend.submit_batch(requests)
        if self._log is not None:
            for entry in entries:
                self._log.write(json.dumps(entry, sort_keys=True) + "\n")
        self.processed += len(requests)
        self._since_checkpoint += len(requests)
        return entries

    def checkpoint_if_due(self) -> None:
        """Save once ``--checkpoint-every`` arrivals passed since the last save."""
        every = self.config.checkpoint_every
        if every > 0 and self._since_checkpoint >= every:
            self.save()

    def save(self) -> bool:
        """Fsync ``--log``, then write the checkpoint; returns whether one was written.

        Durability order: the decision lines covered by a checkpoint must be
        on disk *before* the checkpoint claims them, or a crash right after
        the (atomic) checkpoint write would lose decisions that --resume
        will then never replay.
        """
        if self._log is not None:
            self._log.flush()
            os.fsync(self._log.fileno())
        self._since_checkpoint = 0
        if self.config.checkpoint is None:
            return False
        self.backend.save(self.config.checkpoint)
        return True

    def finish(self, out, *, interrupted: Optional[str]) -> None:
        """Drain, save, close, then print the run's report to ``out``.

        ``interrupted`` names what a SIGTERM drained (the front end's
        wording); ``None`` when the run ended on its own.
        """
        try:
            self.backend.drain()
            checkpointed = self.save()
            summary = self.backend.summary()
        finally:
            self.close()
        if interrupted is not None:
            print(
                f"SIGTERM: drained {interrupted} and "
                f"{'checkpointed' if checkpointed else 'stopped'} "
                f"after {self.processed} arrivals this run",
                file=out,
            )
        verb = "resumed at" if self.config.resume else "served from"
        total = summary.get("processed", self.processed + self.skip)
        print(
            f"{verb} arrival {self.skip}: processed {self.processed} arrivals ({total} total)",
            file=out,
        )
        print(json.dumps(summary, sort_keys=True, indent=2), file=out)

    def close(self) -> None:
        """Close ``--log`` and the backend (stops a pool's workers); idempotent."""
        if self._log is not None:
            self._log.close()
            self._log = None
        self.backend.close()


def serve_replay(config: ServiceConfig, out) -> int:
    """Replay a JSONL trace through a :class:`ServingRun` (the classic loop).

    Reads arrivals and micro-batches them into the run.  ``--resume`` skips
    the arrivals the checkpoint already covers, so an interrupted serve
    continues exactly where it stopped — the combined decision log is
    identical to an uninterrupted run.  SIGTERM triggers a graceful
    shutdown: the in-flight micro-batch drains, the checkpoint is written,
    and the loop returns 0 — so ``--resume`` continues seamlessly.
    """
    from repro.scenarios.trace import stream_trace

    stream = stream_trace(Path(config.trace))
    try:
        run = ServingRun(config, capacities=stream.capacities)
    except BaseException:
        stream.close()
        raise

    # Graceful shutdown: SIGTERM sets a flag the serve loop checks between
    # micro-batches — the in-flight batch drains, the checkpoint is written,
    # and --resume later continues exactly where the signal landed.
    shutdown_requested = False

    def _on_sigterm(signum, frame):
        nonlocal shutdown_requested
        shutdown_requested = True

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread (embedded) use
        previous_sigterm = None

    try:
        chunk = []
        budget = config.max_arrivals if config.max_arrivals is not None else float("inf")
        # Skip the arrivals the checkpoint attests to as raw lines — no JSON
        # decode, no Request construction — so resume costs O(remaining).
        stream.skip(run.skip)
        for request in stream:
            if run.processed >= budget or shutdown_requested:
                break
            chunk.append(request)
            if len(chunk) >= min(config.batch, budget - run.processed):
                run.submit(chunk)
                run.checkpoint_if_due()
                chunk = []
        if chunk:
            run.submit(chunk)
            run.checkpoint_if_due()
        run.finish(out, interrupted="in-flight batch" if shutdown_requested else None)
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        stream.close()
        # Stops a pool's workers on the failure path (finish already closed).
        run.close()
    return 0
