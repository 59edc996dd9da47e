"""Child process of ``replay_hotspot`` and ``session_doubling``: set up, say READY, run.

Started by :mod:`perfbench.run` as ``python3 perfbench/worker.py WORKLOAD TRACE
SEED SECONDS MODE WORKDIR``.  Set-up (interpreter start, imports, trace load,
construction) ends with a ``READY`` line on stdout; the parent times spawn to
READY as ``setup_s``.  The parent then writes ``go`` (run) or ``stop`` (exit)
on stdin.  A run repeats the workload's unit of work while one more
repetition still fits in ``SECONDS`` (at least :data:`MIN_REPS` times), checks
the outputs, and prints one JSON line with every repetition's timings and
results.

``MODE`` is ``run`` or ``trace``.  A traced process alternates untraced and
traced repetitions of the same work, so the tracing overhead is measured on
identical inputs in one process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Repetitions a run makes however long each takes.
MIN_REPS = 3

#: A traced process runs a warm-up repetition, then untraced and traced ones
#: alternately; the warm-up enters neither the metrics nor the overhead.
TRACE_PATTERN = ("warmup", "plain", "traced", "plain", "traced")

#: Micro-batch size and checkpoint cadence of the doubling session, as
#: ``repro serve --batch 64 --checkpoint-every 512`` would drive it.
SESSION_BATCH = 64
CHECKPOINT_EVERY = 512

Check = Tuple[str, bool, str]


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


class Rep:
    """One repetition's window, results, and ``(seconds, arrivals)`` per call.

    Every arrival a call decides waits for the whole call, so a call's latency
    counts once per arrival it decided.
    """

    def __init__(self, start, end, latencies, cost, rejected, algorithm, **extra):
        self.start, self.end = start, end
        self.latencies = latencies
        self.cost, self.rejected = cost, rejected
        self.algorithm = algorithm
        self.extra = extra


class ReplayHotspot:
    """Whole-trace replay through the record-free compiled fast path."""

    def __init__(self, trace: str, seed: int, workdir: str):
        from repro.core.fractional import FractionalAdmissionControl
        from repro.instances.compiled import compile_instance
        from repro.instances.serialize import load_admission_trace

        self._algorithm_cls = FractionalAdmissionControl
        self.instance = load_admission_trace(trace)
        self.compiled = compile_instance(self.instance)
        self.arrivals = self.compiled.num_requests
        self._next = self._fresh()

    def _fresh(self):
        return self._algorithm_cls.for_instance(self.instance, backend="numpy", record=False)

    def prepare(self) -> None:
        if self._next is None:
            self._next = self._fresh()

    def rep(self) -> Rep:
        algorithm, self._next = self._next, None
        start = time.monotonic()
        result = algorithm.process_compiled_sequence(self.compiled)
        end = time.monotonic()
        rejected = sum(min(f, 1.0) for f in result.fractions.values())
        return Rep(start, end, [(end - start, self.arrivals)], result.fractional_cost,
                   rejected / self.arrivals, algorithm)

    def checks(self, last: Rep) -> List[Check]:
        from repro.analysis.invariants import check_fractional_state
        from repro.instances.compiled import compile_sequence
        from repro.instances.request import RequestSequence

        report = check_fractional_state(last.algorithm)
        checks = [("fractional_invariants", report.ok, str(report))]
        prefix = list(self.instance.requests)[: min(self.arrivals, 5_000)]
        compiled = compile_sequence(RequestSequence(prefix), self.instance.capacities)
        runs = []
        for vectorized in (True, False):
            algorithm = self._algorithm_cls.for_instance(self.instance, backend="numpy", record=False)
            runs.append(algorithm.process_compiled_sequence(compiled, vectorized=vectorized).fractions)
        if runs[0].keys() == runs[1].keys():
            worst = max((abs(runs[0][rid] - runs[1][rid]) for rid in runs[1]), default=0.0)
            same, detail = worst <= 1e-9, f"{len(prefix)} arrivals, max |df| = {worst:.3g}"
        else:
            same, detail = False, f"{len(runs[0])} vs {len(runs[1])} arrivals decided"
        checks.append(("prefix_vectorized_equals_scalar", same, detail))
        return checks


class SessionDoubling:
    """A ``doubling`` streaming session fed 64-arrival batches with checkpoints."""

    def __init__(self, trace: str, seed: int, workdir: str):
        from repro.engine.streaming import StreamingSession
        from repro.instances.serialize import load_admission_trace

        self._session_cls = StreamingSession
        self.seed = seed
        self.checkpoint = os.path.join(workdir, "session.ckpt.json")
        self.instance = load_admission_trace(trace)
        self.requests = list(self.instance.requests)
        self.arrivals = len(self.requests)
        self._next = self._fresh()

    def _fresh(self):
        return self._session_cls(
            self.instance.capacities, algorithm="doubling", backend="numpy",
            seed=self.seed, retain_log=False, name="session_doubling",
        )

    def prepare(self) -> None:
        if self._next is None:
            self._next = self._fresh()

    def rep(self) -> Rep:
        session, self._next = self._next, None
        requests, n = self.requests, self.arrivals
        latencies: List[Tuple[float, int]] = []
        entries: List[Dict[str, Any]] = []
        restored = False
        start = time.monotonic()
        for lo in range(0, n, SESSION_BATCH):
            batch = requests[lo : lo + SESSION_BATCH]
            t = time.monotonic()
            entries += session.submit_batch(batch)
            latencies.append((time.monotonic() - t, len(batch)))
            done = lo + len(batch)
            if done % CHECKPOINT_EVERY == 0:
                session.save(self.checkpoint)
                # One restart mid-run: continue from the checkpoint just written.
                if not restored and done >= n // 2:
                    session = self._session_cls.load(self.checkpoint, retain_log=False)
                    restored = True
        end = time.monotonic()
        algorithm = session.algorithm
        rejected = len(algorithm.rejected_ids()) + len(algorithm.preempted_ids())
        return Rep(start, end, latencies, algorithm.rejection_cost(), rejected / n, algorithm,
                   checkpoint_bytes=os.path.getsize(self.checkpoint) if restored else 0,
                   log_digest=hash(json.dumps(entries, sort_keys=True)))

    def checks(self, last: Rep) -> List[Check]:
        from perfbench.checks import feasibility

        algorithm = last.algorithm
        accepted = algorithm.accepted_ids()
        decided = len(accepted) + len(algorithm.rejected_ids()) + len(algorithm.preempted_ids())
        return [
            feasibility(self.instance, accepted),
            ("every_arrival_decided", decided == self.arrivals, f"{decided}/{self.arrivals}"),
        ]


WORKLOADS = {"replay_hotspot": ReplayHotspot, "session_doubling": SessionDoubling}


def run(workload, seconds: float, tracer=None) -> Dict[str, Any]:
    """Repeat the unit of work; in a traced process follow :data:`TRACE_PATTERN`."""
    reps: List[Rep] = []
    kinds: List[str] = []
    cpu_seconds: List[float] = []
    while True:
        if tracer is None:
            kind = "plain"
        elif len(reps) == len(TRACE_PATTERN):
            break
        else:
            kind = TRACE_PATTERN[len(reps)]
        if kind == "traced":
            tracer.install()
        workload.prepare()
        if reps:
            # Only the last repetition's algorithm is checked; earlier ones
            # would otherwise stay live and slow every later repetition.
            reps[-1].algorithm = None
        cpu = time.process_time()
        reps.append(workload.rep())
        cpu_seconds.append(time.process_time() - cpu)
        kinds.append(kind)
        if kind == "traced":
            tracer.uninstall()
        # Stop when one more repetition of average length would overrun.
        k = len(reps)
        if tracer is None and k >= MIN_REPS and (reps[-1].end - reps[0].start) * (k + 1) / k > seconds:
            break
    last = reps[-1]
    checks = workload.checks(last)
    costs = {(rep.cost, rep.rejected) for rep in reps}
    checks.append(("same_result_every_rep", len(costs) == 1, repr(sorted(costs))))
    digests = {rep.extra.get("log_digest") for rep in reps}
    checks.append(("same_decisions_every_rep", len(digests) == 1, f"{len(digests)} distinct"))
    from perfbench.tracing import algorithm_counters

    return {
        "arrivals": workload.arrivals,
        "reps": [[rep.start, rep.end] for rep in reps],
        "cpu": cpu_seconds,
        "kinds": kinds,
        "latencies": [rep.latencies for rep in reps],
        "rejection_cost": last.cost,
        "rejected_frac": last.rejected,
        "checkpoint_bytes": last.extra.get("checkpoint_bytes", 0),
        "counters": algorithm_counters(last.algorithm),
        "peak_rss_mb": peak_rss_mb(),
        "checks": checks,
        "spans": tracer.spans() if tracer is not None else [],
    }


def main(argv: List[str]) -> int:
    name, trace, seed, seconds, mode, workdir = argv
    tracer = None
    if mode == "trace":
        from perfbench.tracing import Tracer

        # Installed for set-up so the trace load is recorded; reps toggle it.
        tracer = Tracer().install()
    workload = WORKLOADS[name](trace, int(seed), workdir)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    print(json.dumps(run(workload, float(seconds), tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
