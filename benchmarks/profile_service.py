"""cProfile of ``repro serve --listen`` under the ``service_window`` workload.

Starts ``python -m cProfile -o .profile_service.pstats -m repro serve`` with
``perfbench``'s pinned serve flags on that workload's trace, drives it with
``perfbench``'s closed-window client (128 single-arrival submits in flight
over loopback TCP), sends ``drain``, then SIGTERM, and prints the server's
top 25 entries by self time.  It reuses ``perfbench``'s inputs and client and
changes nothing there, so the profile is of the benchmark's own workload.

Run from the repository root::

    make profile-service
    PYTHONPATH=src python benchmarks/profile_service.py --seed 91
"""

from __future__ import annotations

import argparse
import os
import pstats
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, service  # noqa: E402
from repro.instances.serialize import request_to_state  # noqa: E402
from repro.service.wire import encode_frame  # noqa: E402

LISTENING = "service listening on "

#: The server's cProfile output, in the directory the script runs from.
PSTATS = ".profile_service.pstats"


def profile_service(seed: int, out: str) -> None:
    """Serve the workload's trace under cProfile (stats written to ``out``)."""
    with tempfile.TemporaryDirectory(prefix="profile-service-") as workdir:
        trace = os.path.join(workdir, "trace.jsonl")
        instance = inputs.write_trace("service_window", seed, 1.0, trace)
        frames = [
            encode_frame({"op": "submit", "seq": i, "request": request_to_state(r)})
            for i, r in enumerate(instance.requests)
        ]
        log = os.path.join(workdir, "decisions.jsonl")
        cmd = [sys.executable, "-m", "cProfile", "-o", out, "-m", "repro", "serve",
               *service.serve_args(trace, seed, log)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=str(ROOT)) as proc:
            try:
                for line in proc.stdout:
                    if line.startswith(LISTENING):
                        break
                else:
                    raise RuntimeError(f"server exited with {proc.wait()} before listening")
                host, port = line[len(LISTENING):].strip().rsplit(":", 1)
                with socket.create_connection((host, int(port))) as sock:
                    service.read_frame(sock, b"")  # welcome
                    start = time.monotonic()
                    window = service.closed_window(sock, frames)
                    elapsed = time.monotonic() - start
                    service.drain(sock, seq=len(frames))
                proc.send_signal(signal.SIGTERM)
                proc.communicate(timeout=service.SERVER_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
    answered = len(window.replies)
    print(f"{answered} of {len(frames)} arrivals answered in {elapsed:.2f} s "
          f"({answered / elapsed:,.0f} arrivals/s, profiled)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=91, help="workload seed (default 91)")
    args = parser.parse_args()
    profile_service(args.seed, PSTATS)
    pstats.Stats(PSTATS).sort_stats("tottime").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
