#!/usr/bin/env python3
"""The benchmark's one command: run a workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; lines before it say what was measured and how many samples
each figure rests on.  Each failed output check counts as a failed
operation, and so does every arrival the service never answered.

Workloads (inputs: :mod:`perfbench.inputs`, generated from ``--seed``):

``replay_hotspot``
    Closed batch job in a child process: ``load_admission_trace`` ->
    ``compile_instance`` -> ``FractionalAdmissionControl.for_instance(
    backend="numpy", record=False)`` in set-up, then
    ``process_compiled_sequence`` repeated on fresh algorithms.
``session_doubling``
    Closed loop in a child process: a ``doubling`` ``StreamingSession`` fed
    64-arrival ``submit_batch`` calls, a checkpoint ``save`` every 512
    arrivals and one ``StreamingSession.load`` half way; repeated.
``service_window``
    ``repro serve --listen`` in its own process, pinned to ``--batch 8``, and
    one client connection keeping 128 single-arrival ``submit`` frames in
    flight until the whole trace is answered; a fresh server per repetition.

End-to-end metrics (``--trace 0``):

* ``throughput_rps`` -- arrivals / median repetition time (service: first
  send to last reply).
* ``latency_p50_ms`` / ``latency_p99_ms`` -- nearest-rank percentiles over
  arrivals of how long each waited for its decision: on the service, send to
  reply (a failed or missing reply sorts above all); in the closed
  workloads, the duration of the call that decided it (a 64-arrival
  ``submit_batch``, or the whole-trace call).  p50 pools every arrival of
  the run; p99 is the median over repetitions of each repetition's p99, so
  one slow repetition on a shared host does not set it.  Every arrival of a
  whole-trace replay waits for the same call, so there p99 equals the median
  repetition time.
* ``rejection_cost`` / ``rejected_frac`` -- the paper's objective and the
  rejected share of arrivals (fractional: sum of min(f, 1)); fixed by the
  seed.
* ``setup_s`` -- median over the processes a run starts of the time from
  spawn to ready (worker: :data:`SETUP_REPEATS` spawns, to its READY line;
  service: every server, to its welcome frame).
* ``peak_rss_mb`` -- ``VmHWM`` of the worker, or the median over servers of
  theirs before drain.

Per-layer metrics (``--trace 1``) come from a separate traced run; see
:mod:`perfbench.tracing`.  Closed workloads run untraced, traced, untraced,
traced repetitions in one process and report per-repetition figures from the
traced ones; the service alternates untraced and traced servers the same way
and adds the ``service.*`` and ``loadgen.*`` metrics.  A layer a workload
never calls reports 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("replay_hotspot", "session_doubling", "service_window")

#: Spawns per run whose set-up time is measured (median reported).
SETUP_REPEATS = 3

#: Upper bound on a worker's run after READY, beyond ``--seconds``.
WORKER_TIMEOUT_S = 150.0

#: Server processes a service run starts at least, each serving the whole trace.
SERVICE_MIN_REPS = 3

#: A traced service run: untraced and traced servers alternately, so the
#: tracing overhead is measured on identical inputs.
SERVICE_TRACE_PATTERN = ("plain", "traced", "plain", "traced")

END_TO_END_UNITS = {
    "throughput_rps": "arrivals/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rejection_cost": "cost",
    "rejected_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size factor (edges, and arrivals of the closed workloads); tests use a small one",
    )
    return parser.parse_args(argv)


# -- closed workloads --------------------------------------------------------------------


class Worker:
    """A :mod:`perfbench.worker` child; construction returns once it is READY."""

    def __init__(self, args, trace: str, mode: str, workdir: str):
        self.stderr_path = os.path.join(workdir, f"worker-{time.monotonic_ns()}.stderr")
        script = str(ROOT / "perfbench" / "worker.py")
        cmd = [sys.executable, script, args.workload, trace, str(args.seed),
               str(args.seconds), mode, workdir]
        with open(self.stderr_path, "wb") as stderr:
            start = time.monotonic()
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                cwd=str(ROOT), text=True,
            )
            line = self.proc.stdout.readline()
            self.setup_s = time.monotonic() - start
        if line.strip() != "READY":
            self.finish("stop")
            raise RuntimeError(f"worker failed in set-up:\n{self._stderr_tail()}")

    def _stderr_tail(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-3000:]

    def finish(self, command: str, timeout: float = 60.0) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("worker timed out") from None
        except BrokenPipeError:
            out = ""
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}:\n{self._stderr_tail()}")
        return out

    def run(self, seconds: float) -> Dict[str, Any]:
        out = self.finish("go", timeout=seconds + WORKER_TIMEOUT_S)
        return json.loads(out.strip().splitlines()[-1])


Outcome = Tuple[Dict[str, float], int, int, List[list], List[str]]


def run_closed(args, trace: str, workdir: str) -> Outcome:
    """Run a closed workload in a worker; returns (metrics, attempted, failed, checks, lines)."""
    from perfbench import stats, tracing

    lines: List[str] = []
    if args.trace:
        result = Worker(args, trace, "trace", workdir).run(args.seconds)
    else:
        setups = []
        for k in range(SETUP_REPEATS):
            worker = Worker(args, trace, "run", workdir)
            setups.append(worker.setup_s)
            if k < SETUP_REPEATS - 1:
                worker.finish("stop")
        result = worker.run(args.seconds)
    arrivals = result["arrivals"]
    durations = [end - start for start, end in result["reps"]]
    kinds = result["kinds"]
    untraced = [d for d, kind in zip(durations, kinds) if kind == "plain"]
    attempted = arrivals * len(durations)
    lines.append(
        f"{args.workload}: {arrivals} arrivals x {len(durations)} repetitions, "
        f"repetition seconds {', '.join(f'{d:.3f}' for d in durations)}; "
        f"CPU seconds {', '.join(f'{c:.3f}' for c in result['cpu'])}"
    )
    lines.append(f"rejection_cost {result['rejection_cost']!r} rejected_frac {result['rejected_frac']!r}")
    if not args.trace:
        # One window per repetition: (per-call ms, arrivals each call decided).
        windows = [([s * 1000.0 for s, _ in calls], [k for _, k in calls])
                   for calls in result["latencies"]]
        latencies_ms = [x for values, _ in windows for x in values]
        weights = [k for _, counts in windows for k in counts]
        lines.append(
            f"latency samples: {sum(weights)} arrivals decided by {len(weights)} calls in "
            f"{len(windows)} repetitions; set-up seconds {', '.join(f'{s:.3f}' for s in setups)}"
        )
        metrics = {
            "throughput_rps": arrivals / statistics.median(untraced),
            "latency_p50_ms": stats.percentile(latencies_ms, 50, weights),
            "latency_p99_ms": stats.windowed_percentile(windows, 99),
            "rejection_cost": result["rejection_cost"],
            "rejected_frac": result["rejected_frac"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return metrics, attempted, 0, result["checks"], lines
    traced = [d for d, kind in zip(durations, kinds) if kind == "traced"]
    windows = [tuple(w) for w, kind in zip(result["reps"], kinds) if kind == "traced"]
    spans = [tuple(s) for s in result["spans"]]
    metrics = tracing.layer_metrics(spans, windows, per=len(windows))
    counters = result["counters"]
    metrics.update({k: v for k, v in counters.items() if k != "augmentations"})
    metrics.update({
        "serialize.trace_load_s": tracing.span_seconds(spans, "serialize.load"),
        "serialize.checkpoint_bytes": float(result["checkpoint_bytes"]),
        "backends.augmentations_per_arrival": counters["augmentations"] / arrivals,
        "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
    })
    return metrics, attempted, 0, result["checks"], lines


# -- service -----------------------------------------------------------------------------


def serve_once(args, trace: str, frames: List[bytes], workdir: str, tag: str,
               spans_file: Optional[str] = None) -> Dict[str, Any]:
    """One repetition: spawn a server, run the closed window, drain it, stop it."""
    from perfbench import service
    from perfbench.worker import peak_rss_mb

    log = os.path.join(workdir, f"decisions-{tag}.jsonl")
    server = service.Server(service.serve_args(trace, args.seed, log), workdir,
                            spans_file=spans_file)
    try:
        sock, setup = server.connect()
    except BaseException:
        server.kill()
        raise
    try:
        cpu_before = server.cpu_seconds()
        loop = service.closed_window(sock, frames)
        cpu_after = server.cpu_seconds()
        rss = peak_rss_mb(server.proc.pid)
        service.drain(sock, seq=len(frames))
    except BaseException:
        server.kill()
        raise
    finally:
        sock.close()
    code = server.stop()
    n = len(frames)
    latency = [math.inf] * n
    stray = 0
    first = loop.sent_at[0]
    last_reply = first
    for stamp, line in loop.replies:
        frame = json.loads(line)
        seq = frame.get("seq")
        ok = frame.get("op") == "result" and frame.get("entry") is not None
        if ok and isinstance(seq, int) and 0 <= seq < loop.sent and latency[seq] == math.inf:
            latency[seq] = stamp - loop.sent_at[seq]
            last_reply = max(last_reply, stamp)
        else:
            stray += 1
    with open(log, encoding="utf-8") as fh:
        log_lines = fh.read().splitlines()
    os.remove(log)
    return {
        "latency": latency,
        "received": sum(1 for x in latency if x != math.inf),
        "stray": stray,
        "window": (first, last_reply),
        "sent": loop.sent,
        "setup_s": setup,
        "cpu_s": cpu_after - cpu_before,
        "rss_mb": rss,
        "exit_code": code,
        "log": log_lines,
        "spans_file": spans_file,
    }


def run_service(args, trace: str, instance, workdir: str) -> Outcome:
    """Repeat :func:`serve_once`; returns (metrics, attempted, failed, checks, lines)."""
    from perfbench import checks, service, stats, tracing
    from repro.instances.serialize import request_to_state
    from repro.service.wire import encode_frame

    requests = list(instance.requests)
    n = len(requests)
    frames = [
        encode_frame({"op": "submit", "seq": i, "request": request_to_state(r)})
        for i, r in enumerate(requests)
    ]
    expected_log = checks.in_process_log(instance, args.seed, batch=service.BATCH)
    costs = {r.request_id: r.cost for r in requests}

    runs: List[Dict[str, Any]] = []
    kinds: List[str] = []
    start = time.monotonic()
    while True:
        if args.trace:
            if len(runs) == len(SERVICE_TRACE_PATTERN):
                break
            kind = SERVICE_TRACE_PATTERN[len(runs)]
        else:
            k = len(runs)
            if k >= SERVICE_MIN_REPS and (time.monotonic() - start) * (k + 1) / k > args.seconds:
                break
            kind = "plain"
        tag = str(len(runs))
        spans_file = os.path.join(workdir, f"spans-{tag}.json") if kind == "traced" else None
        runs.append(serve_once(args, trace, frames, workdir, tag, spans_file))
        kinds.append(kind)

    run_checks: List[list] = []
    failed_arrivals = 0
    for run in runs:
        run_checks.append(["server_exit_code_0", run["exit_code"] == 0, str(run["exit_code"])])
        run_checks.append(list(checks.same_log(expected_log, run["log"])))
        run_checks.append(list(checks.feasibility(instance, checks.accepted_from_log(run["log"]))))
        failed_arrivals += n - run["received"]
    rejected = checks.rejected_from_log(runs[0]["log"])
    rejection_cost = sum(costs[i] for i in rejected)
    plain = [run for run, kind in zip(runs, kinds) if kind == "plain"]
    durations = [run["window"][1] - run["window"][0] for run in runs]
    cpu_us = [run["cpu_s"] * 1e6 / n for run in plain]
    lines = [
        f"service_window: {n} arrivals over {len(instance.capacities)} edges x {len(runs)} "
        f"repetitions, {service.WINDOW} in flight, --batch {service.BATCH}; "
        f"{sum(run['received'] for run in runs)} replies, {failed_arrivals} failed, "
        f"{sum(run['stray'] for run in runs)} stray frames",
        f"repetition seconds {', '.join(f'{d:.3f}' for d in durations)}; server CPU "
        f"seconds {', '.join(f'{cpu:.3f}' for cpu in (run['cpu_s'] for run in runs))}",
        f"rejection_cost {rejection_cost!r} rejected_frac {len(rejected) / n!r}",
    ]
    attempted = n * len(runs)
    if not args.trace:
        setups = [run["setup_s"] for run in runs]
        lines.append(
            f"latency samples: {n * len(runs)} arrivals in {len(runs)} repetitions; "
            f"set-up seconds {', '.join(f'{s:.3f}' for s in setups)}"
        )
        windows = [([x * 1000.0 for x in run["latency"]], None) for run in runs]
        metrics = {
            "throughput_rps": statistics.median(
                run["received"] / d if d > 0 else 0.0 for run, d in zip(runs, durations)
            ),
            "latency_p50_ms": stats.percentile([x for values, _ in windows for x in values], 50),
            "latency_p99_ms": stats.windowed_percentile(windows, 99),
            "rejection_cost": rejection_cost,
            "rejected_frac": len(rejected) / n,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run["rss_mb"] for run in runs),
        }
        return metrics, attempted, failed_arrivals, run_checks, lines
    traced = [run for run, kind in zip(runs, kinds) if kind == "traced"]
    spans: List[tracing.Span] = []
    for run in traced:
        run_spans, counters = tracing.load_spans(run["spans_file"])
        spans += tracing.offset_parents(run_spans, len(spans))
    metrics = tracing.layer_metrics(spans, [run["window"] for run in traced], per=len(traced))
    metrics.update({k: v for k, v in counters.items() if k != "augmentations"})
    batches = metrics["streaming.batches"]
    traced_s = sum(run["window"][1] - run["window"][0] for run in traced)
    plain_s = sum(run["window"][1] - run["window"][0] for run in plain)
    metrics.update({
        "serialize.trace_load_s": tracing.span_seconds(spans, "serialize.load") / len(traced),
        "backends.augmentations_per_arrival": counters.get("augmentations", 0.0) / n,
        "service.cpu_us_per_arrival": statistics.median(cpu_us),
        "service.arrivals_per_flush": n / batches if batches else 0.0,
        "loadgen.sent": float(statistics.median(run["sent"] for run in runs)),
        "loadgen.failed": float(failed_arrivals),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    return metrics, attempted, failed_arrivals, run_checks, lines


# -- entry point -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, tracing

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        trace = str(workdir / "trace.jsonl")
        instance = inputs.write_trace(args.workload, args.seed, args.scale, trace)
        if args.workload == "service_window":
            outcome = run_service(args, trace, instance, str(workdir))
        else:
            outcome = run_closed(args, trace, str(workdir))
        metrics, attempted, failed_ops, run_checks, lines = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in run_checks:
        lines.append(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    failed = failed_ops + sum(1 for _, ok, _ in run_checks if not ok)
    if args.trace:
        units = dict(tracing.PER_LAYER_METRICS)
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        units = END_TO_END_UNITS
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted + len(run_checks),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
