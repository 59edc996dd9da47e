"""Per-shard health monitoring for the admission service.

The monitor polls the serving backend's uniform ``shard_stats()`` surface
(:class:`~repro.engine.streaming.StreamingSession` and
:class:`~repro.engine.shards.ProcessShardPool` export the same shape) and
classifies each shard:

``healthy``
    the worker is alive and either idle or making progress;
``stalled``
    the worker is alive but has replies pending and its ``processed``
    counter has not moved for ``stall_after`` seconds — the queue-lag signal
    that a shard is wedged or drowning;
``dead``
    the worker process is gone (only a pool with worker processes can
    report this).

The overall service state is the worst shard state.  Observation is pull
based and non-blocking — the pool's ``shard_stats`` only reaps replies that
already arrived — so the front door can heartbeat on a timer without ever
waiting on a busy worker.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

__all__ = ["HealthMonitor", "HEALTH_STATES"]

#: Shard states from best to worst; the service reports the worst one.
HEALTH_STATES = ("healthy", "stalled", "dead")


class HealthMonitor:
    """Track per-shard liveness and progress over successive observations."""

    def __init__(
        self,
        stats_fn: Callable[[], Dict[int, Dict[str, Any]]],
        *,
        stall_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if stall_after <= 0:
            raise ValueError("stall_after must be > 0 seconds")
        self._stats_fn = stats_fn
        self._stall_after = float(stall_after)
        self._clock = clock
        #: shard -> (last processed count, timestamp of the last progress)
        self._progress: Dict[int, Any] = {}
        self._snapshot: Dict[str, Any] = {"state": "healthy", "shards": {}}

    def observe(self) -> Dict[str, Any]:
        """Poll the backend once and refresh the health snapshot."""
        now = self._clock()
        shards: Dict[int, Dict[str, Any]] = {}
        worst = 0
        for shard, stats in self._stats_fn().items():
            processed = int(stats.get("processed", 0))
            last_processed, last_time = self._progress.get(shard, (None, now))
            if last_processed is None or processed > last_processed:
                last_time = now
            self._progress[shard] = (processed, last_time)
            age = now - last_time
            if not stats.get("alive", True):
                state = "dead"
            elif stats.get("pending", 0) > 0 and age >= self._stall_after:
                state = "stalled"
            else:
                state = "healthy"
            worst = max(worst, HEALTH_STATES.index(state))
            shards[shard] = {
                "state": state,
                "alive": bool(stats.get("alive", True)),
                "pid": stats.get("pid"),
                "pending": int(stats.get("pending", 0)),
                "processed": processed,
                "decisions": int(stats.get("decisions", 0)),
                "since_progress": round(age, 3),
            }
        self._snapshot = {"state": HEALTH_STATES[worst], "shards": shards}
        return self._snapshot

    def snapshot(self) -> Dict[str, Any]:
        """The most recent observation (JSON-able; observe() to refresh)."""
        return self._snapshot

    @property
    def state(self) -> str:
        """The overall state of the last observation."""
        return str(self._snapshot["state"])

    def unhealthy_shards(self) -> Dict[int, Dict[str, Any]]:
        """The non-``healthy`` shards of the last observation."""
        return {
            shard: info
            for shard, info in self._snapshot["shards"].items()
            if info["state"] != "healthy"
        }
