"""Resident growth of one serving session, or one whole-trace replay, per arrival.

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
``replay_hotspot`` measures the state a numpy ``fractional`` whole-trace
replay keeps instead: the trace is compiled before tracing starts, and the
growth is read after one ``process_compiled_range`` call over it, before
``run_result`` builds its result.  Nothing in ``perfbench`` changes.

Run from the repository root::

    make profile-memory
    PYTHONPATH=src python benchmarks/profile_memory.py --workload service_window --scale 4
    PYTHONPATH=src python benchmarks/profile_memory.py --workload replay_hotspot
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
from repro.core.fractional import FractionalAdmissionControl  # noqa: E402
from repro.engine.streaming import StreamingSession  # noqa: E402
from repro.instances.compiled import compile_instance  # noqa: E402

#: Workload -> (algorithm, arrivals per ``submit_batch``).
SESSIONS = {"service_window": ("randomized", 8), "session_doubling": ("doubling", 64)}
#: The whole-trace replay workload (one ``process_compiled_range`` call).
REPLAY = "replay_hotspot"


def traced(run):
    """Call ``run()`` under tracemalloc.

    Returns its result, the traced bytes still held after ``gc.collect()``,
    and the number of GC-tracked objects it added.
    """
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    kept = run()
    gc.collect()
    grown = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return kept, grown, len(gc.get_objects()) - objects


def measure(workload: str, algorithm: str, scale: float, seed: int) -> str:
    """Run the workload's input through what it measures; return the report line."""
    instance = GENERATORS[workload](seed, scale)
    n = instance.num_requests
    if workload == REPLAY:
        algorithm = algorithm or "fractional"
        how = "one process_compiled_range call"
        compiled = compile_instance(instance)

        def run():
            replay = FractionalAdmissionControl.for_instance(instance, backend="numpy")
            replay.process_compiled_range(compiled, 0, n)
            return replay

        replay, grown, added = traced(run)
        kind, cost = "fractional", replay.fractional_cost()
    else:
        default_algorithm, batch = SESSIONS[workload]
        algorithm = algorithm or default_algorithm
        how = f"batches of {batch}"
        requests = list(instance.requests)

        def run():
            session = StreamingSession(
                instance.capacities, algorithm=algorithm, backend="numpy", seed=seed,
                retain_log=False,
            )
            for lo in range(0, n, batch):
                session.submit_batch(requests[lo : lo + batch])
            return session

        session, grown, added = traced(run)
        summary = session.summary()
        kind = "rejection" if "rejection_cost" in summary else "fractional"
        cost = summary[kind + "_cost"]
    return (
        f"{workload} x{scale:g} {algorithm} ({how}, seed {seed}): "
        f"{n} arrivals, traced growth {grown / 1e6:.2f} MB, {grown / n:,.0f} B/arrival, "
        f"{added / n:.2f} GC-tracked objects/arrival, "
        f"{kind} cost {cost:.6g}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted([*SESSIONS, REPLAY]), default="service_window")
    parser.add_argument("--algorithm", default=None, help="session algorithm (default: the workload's)")
    parser.add_argument("--scale", type=float, default=1.0, help="input scale (default 1)")
    parser.add_argument("--seed", type=int, default=101, help="input and session seed (default 101)")
    args = parser.parse_args()
    print(measure(args.workload, args.algorithm, args.scale, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
