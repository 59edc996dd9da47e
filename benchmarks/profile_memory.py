"""Resident growth of one serving session, per arrival.

Builds the session ``repro serve`` builds (numpy backend,
``retain_log=False``) over ``perfbench``'s input for ``--workload``, feeds it
the whole input in micro-batches, and prints one line: the memory the
session grew by (tracemalloc), that growth per arrival, the GC-tracked
objects it added per arrival (counted after ``gc.collect()``), and the
rejection cost (the fractional cost for a fractional algorithm).  The
requests are built before tracing starts, so only what the session keeps is
counted.  ``service_window`` runs ``randomized`` in batches of 8 and
``session_doubling`` runs ``doubling`` in batches of 64, as the benchmark
drives them; ``--algorithm`` swaps in another ``STREAMING_ALGORITHMS`` key.
Nothing in ``perfbench`` changes.

Run from the repository root::

    make profile-memory
    PYTHONPATH=src python benchmarks/profile_memory.py --workload service_window --scale 4
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.inputs import GENERATORS  # noqa: E402
from repro.engine.streaming import StreamingSession  # noqa: E402

#: Workload -> (algorithm, arrivals per ``submit_batch``).
SESSIONS = {"service_window": ("randomized", 8), "session_doubling": ("doubling", 64)}


def measure(workload: str, algorithm: str, scale: float, seed: int) -> str:
    """Serve the workload's input through one session; return the report line."""
    default_algorithm, batch = SESSIONS[workload]
    algorithm = algorithm or default_algorithm
    instance = GENERATORS[workload](seed, scale)
    requests = list(instance.requests)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    session = StreamingSession(
        instance.capacities, algorithm=algorithm, backend="numpy", seed=seed, retain_log=False
    )
    for lo in range(0, len(requests), batch):
        session.submit_batch(requests[lo : lo + batch])
    gc.collect()
    grown = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    added = len(gc.get_objects()) - objects
    n = len(requests)
    summary = session.summary()
    kind = "rejection" if "rejection_cost" in summary else "fractional"
    return (
        f"{workload} x{scale:g} {algorithm} (batches of {batch}, seed {seed}): "
        f"{n} arrivals, traced growth {grown / 1e6:.2f} MB, {grown / n:,.0f} B/arrival, "
        f"{added / n:.2f} GC-tracked objects/arrival, "
        f"{kind} cost {summary[kind + '_cost']:.6g}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SESSIONS), default="service_window")
    parser.add_argument("--algorithm", default=None, help="session algorithm (default: the workload's)")
    parser.add_argument("--scale", type=float, default=1.0, help="input scale (default 1)")
    parser.add_argument("--seed", type=int, default=101, help="input and session seed (default 101)")
    args = parser.parse_args()
    print(measure(args.workload, args.algorithm, args.scale, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
