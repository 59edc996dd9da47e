"""cProfile of one whole-trace replay of the ``replay_hotspot`` workload.

Builds ``perfbench``'s ``replay_hotspot`` trace for ``--seed`` (default 7),
compiles it, runs one record-free numpy ``process_compiled_sequence`` call on
a fresh ``FractionalAdmissionControl`` under cProfile, and prints the top 25
entries by self time (stats written to ``.profile_replay.pstats``).  The
trace is built in memory and nothing in ``perfbench`` changes, so the profile
is of the benchmark's own unit of work.

Run from the repository root::

    make profile-replay
    PYTHONPATH=src python benchmarks/profile_replay.py --seed 7
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs  # noqa: E402
from repro.core.fractional import FractionalAdmissionControl  # noqa: E402
from repro.instances.compiled import compile_instance  # noqa: E402

#: The cProfile output, in the directory the script runs from.
PSTATS = ".profile_replay.pstats"


def profile_replay(seed: int, out: str) -> None:
    """Replay the workload's trace once under cProfile (stats written to ``out``)."""
    instance = inputs.replay_hotspot(seed)
    compiled = compile_instance(instance)
    algorithm = FractionalAdmissionControl.for_instance(instance, backend="numpy", record=False)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    algorithm.process_compiled_sequence(compiled)
    profiler.disable()
    elapsed = time.perf_counter() - start
    profiler.dump_stats(out)
    arrivals = compiled.num_requests
    print(f"{arrivals} arrivals replayed in {elapsed:.2f} s "
          f"({arrivals / elapsed:,.0f} arrivals/s, profiled), "
          f"{algorithm.num_augmentations} augmentations")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    args = parser.parse_args()
    profile_replay(args.seed, PSTATS)
    pstats.Stats(PSTATS).sort_stats("tottime").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
