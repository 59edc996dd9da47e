"""Parallel trial executor: fan work out over processes, degrade gracefully.

The executor runs a function over a list of work items with ``jobs`` workers.
It prefers :class:`concurrent.futures.ProcessPoolExecutor` (true multi-core
parallelism), but many call sites build work items from closures — experiment
sweeps capture grid parameters in lambdas — which cannot cross a process
boundary.  Those run on a thread pool instead (the offline HiGHS solves
release the GIL for most of their runtime), and so does picklable work when
the process pool cannot be created or submitted to.  Results always come
back in submission order, and because every trial's random seed is derived
*before* dispatch (see :func:`derive_seed_pairs`), the results are
bit-identical no matter which lane executed them or in what order they
finished.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.engine.config import resolve_jobs

__all__ = ["execute", "derive_seed_pairs", "is_picklable"]

T = TypeVar("T")
R = TypeVar("R")

#: Seed types handed to workers: picklable and convertible by ``as_generator``.
TrialSeed = Union[int, np.random.SeedSequence]


def is_picklable(*objects: Any) -> bool:
    """True if every object survives ``pickle.dumps`` (process-pool eligible)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


def derive_seed_pairs(random_state: Any, num_trials: int) -> List[Tuple[TrialSeed, TrialSeed]]:
    """Derive ``(workload seed, algorithm seed)`` pairs for ``num_trials`` trials.

    The derivation matches :func:`repro.utils.rng.spawn_generators` exactly —
    trial ``t`` receives the children ``2t`` and ``2t + 1`` of the root seed —
    so a parallel run reproduces the serial run bit for bit, and a given trial
    index always sees the same streams regardless of how many trials run or on
    how many workers.
    """
    if num_trials < 0:
        raise ValueError("num_trials must be non-negative")
    count = 2 * num_trials
    if isinstance(random_state, np.random.Generator):
        seeds = random_state.integers(0, 2**63 - 1, size=count)
        children: Sequence[TrialSeed] = [int(s) for s in seeds]
    else:
        seq = (
            random_state
            if isinstance(random_state, np.random.SeedSequence)
            else np.random.SeedSequence(random_state)
        )
        children = seq.spawn(count)
    return [(children[2 * t], children[2 * t + 1]) for t in range(num_trials)]


def execute(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int = 1,
    prefer_processes: bool = True,
) -> List[R]:
    """Run ``fn`` over ``items`` with up to ``jobs`` workers; results in order.

    ``jobs <= 1`` (after :func:`~repro.engine.config.resolve_jobs`
    normalisation of non-positive values) runs serially.  With multiple
    workers the executor picks the widest lane that can carry the work:
    processes when ``fn`` and the items pickle, otherwise threads.  Worker
    exceptions propagate to the caller unchanged in both pooled lanes, and
    every item runs exactly once.
    """
    work = list(items)
    jobs = resolve_jobs(jobs) if jobs is not None and jobs <= 0 else int(jobs or 1)
    workers = min(jobs, len(work))
    if workers <= 1:
        return [fn(item) for item in work]

    if prefer_processes and is_picklable(fn, work):
        processes = None
        try:
            processes = ProcessPoolExecutor(max_workers=workers)
            futures = [processes.submit(fn, item) for item in work]
        except (pickle.PicklingError, OSError):
            # Creating the pool or starting its workers can fail in
            # constrained sandboxes; then the items run on threads.  An error
            # raised by ``fn`` itself comes from its future below instead.
            if processes is not None:
                processes.shutdown(cancel_futures=True)
        else:
            with processes:
                return [future.result() for future in futures]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))
