"""End-to-end service smoke: SIGTERM a live network service, resume, compare.

Run as ``python -m repro.service.smoke`` (the ``make service-smoke`` target):

1. record a namespaced adversarial trace;
2. **uninterrupted leg** — start ``repro serve --listen`` as a real
   subprocess (a shard pool with 2 worker processes), drive
   every arrival over TCP through :class:`~repro.service.AdmissionClient`
   in trace order, SIGTERM it, and keep its decision log;
3. **interrupted leg** — same service with a checkpoint, drive half the
   arrivals, SIGTERM mid-stream (the graceful drain writes the
   ``shard-pool-checkpoint``), restart with ``--resume --workers 2`` in a
   fresh process, drive the rest from where the welcome frame says the service
   stopped, SIGTERM again;
4. require the two decision logs to be **byte-identical**, the service
   processes to be gone, and ``/dev/shm`` to hold no leaked segments.

Exit code 0 means the whole network path — wire codec, micro-batching
dispatcher, drain-on-SIGTERM, checkpoint, resume — never changed a decision
(ARCHITECTURE.md invariant 10).
"""

from __future__ import annotations

import glob
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.instances.serialize import load_admission_trace
from repro.service.client import AdmissionClient

WORKDIR = Path(".service-smoke")
LISTEN_PREFIX = "service listening on "


class ServerProcess:
    """A ``repro serve --listen`` subprocess plus its parsed address."""

    def __init__(self, args: List[str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: List[str] = []
        self._listening = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line)
            if line.startswith(LISTEN_PREFIX):
                host, _, port = line[len(LISTEN_PREFIX):].strip().rpartition(":")
                self.address = (host, int(port))
                self._listening.set()
        self._listening.set()  # EOF: unblock waiters even on startup failure

    def _close_pipe(self) -> None:
        """Join the reader (it stops at the exited server's EOF), close stdout."""
        self._reader.join(timeout=5.0)
        assert self.proc.stdout is not None
        self.proc.stdout.close()

    def wait_listening(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._listening.wait(timeout)
        if self.address is None:
            self.proc.kill()
            self.proc.wait()
            self._close_pipe()
            raise AssertionError(
                "server never printed its listen address:\n" + "".join(self.lines)
            )
        return self.address

    def sigterm_and_wait(self, timeout: float = 60.0) -> None:
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=timeout)
        self._close_pipe()
        if code != 0:
            raise AssertionError(
                f"server exited {code} after SIGTERM:\n" + "".join(self.lines)
            )


def drive(address: Tuple[str, int], requests, *, batch: int = 8) -> int:
    """Submit ``requests`` in order over one connection; return count."""
    host, port = address
    with AdmissionClient(host, port) as client:
        for lo in range(0, len(requests), batch):
            client.submit_batch(requests[lo : lo + batch])
        return client.processed


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    trace = WORKDIR / "t.jsonl"
    checkpoint = WORKDIR / "ck.json"
    full_log = WORKDIR / "full.jsonl"
    part_log = WORKDIR / "part.jsonl"

    from repro.scenarios.trace import record_trace
    from repro.workloads.admission_traffic import adversarial_mix_workload

    record_trace(
        adversarial_mix_workload(num_edges=8, capacity=2, random_state=7), str(trace)
    )
    requests = list(load_admission_trace(str(trace)).requests)
    half = len(requests) // 2
    print(f"service smoke: {len(requests)} arrivals, interrupting after {half}")

    base = [
        "--trace", str(trace), "--listen", "127.0.0.1:0",
        "--algorithm", "fractional", "--seed", "5", "--workers", "2",
    ]

    # Uninterrupted leg: one server, every arrival, SIGTERM at the end.
    server = ServerProcess([*base, "--log", str(full_log)])
    drive(server.wait_listening(), requests)
    server.sigterm_and_wait()

    # Interrupted leg: half the arrivals, SIGTERM mid-stream (drain writes
    # the shard-pool checkpoint), resume in a fresh process, finish.
    server = ServerProcess([*base, "--log", str(part_log), "--checkpoint", str(checkpoint)])
    drive(server.wait_listening(), requests[:half])
    server.sigterm_and_wait()
    if not checkpoint.exists():
        raise AssertionError("SIGTERM drain did not write the checkpoint")

    server = ServerProcess(
        [
            "--trace", str(trace), "--listen", "127.0.0.1:0", "--resume",
            "--workers", "2", "--checkpoint", str(checkpoint), "--log", str(part_log),
        ]
    )
    address = server.wait_listening()
    host, port = address
    with AdmissionClient(host, port) as client:
        assert client.welcome is not None
        resumed_at = int(client.welcome["processed"])
    if resumed_at != half:
        raise AssertionError(f"resumed service reports {resumed_at} processed, wanted {half}")
    drive(address, requests[resumed_at:])
    server.sigterm_and_wait()

    full_bytes = full_log.read_bytes()
    part_bytes = part_log.read_bytes()
    if full_bytes != part_bytes:
        raise AssertionError(
            "resumed decision log differs from the uninterrupted run "
            f"({len(part_bytes)} vs {len(full_bytes)} bytes)"
        )

    leaks = glob.glob("/dev/shm/psm_*")
    if leaks:
        raise AssertionError(f"leaked shared-memory segments: {leaks}")
    deadline = time.monotonic() + 5.0
    while lingering_serve_processes() and time.monotonic() < deadline:
        time.sleep(0.1)
    lingering = lingering_serve_processes()
    if lingering:
        raise AssertionError(f"leaked service processes: {lingering}")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    print(
        "service smoke passed: SIGTERM + resume over TCP is byte-identical "
        "to an uninterrupted run; no shm/process leaks"
    )
    return 0


def lingering_serve_processes() -> List[Tuple[str, str]]:
    """PIDs (other than us) whose argv runs ``-m repro serve``.

    A server's forked pool workers share its argv, so they count too; a
    process that merely names the package (an editor on ``server.py``) does
    not.
    """
    out: List[Tuple[str, str]] = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if any(argv[i : i + 3] == [b"-m", b"repro", b"serve"] for i in range(len(argv))):
            out.append((pid, b" ".join(argv).decode(errors="replace").strip()))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
