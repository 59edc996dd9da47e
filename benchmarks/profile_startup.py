"""Import-time profile of one ``repro serve --listen`` start-up.

Records a small fixed trace (the serve smoke's: bursty traffic on 16 edges,
200 arrivals, seed 7), starts ``python -X importtime -m repro serve --trace
<it> --listen 127.0.0.1:0 --algorithm randomized --backend numpy``, reads its
import log up to the ``service listening on`` line, SIGTERMs it, and prints
how many modules the start-up loaded and the top 25 entries of the log by
cumulative time.  Imports are most of a serve start-up's time, so the next
start-up cut starts from this list.

Run from the repository root::

    make profile-startup
    PYTHONPATH=src python benchmarks/profile_startup.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LISTENING = "service listening on "

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


class ImportEntry(NamedTuple):
    """One line of a ``-X importtime`` log (times in microseconds)."""

    name: str
    self_us: int
    cumulative_us: int
    depth: int


def write_trace(path: str) -> str:
    """Record the fixed start-up trace to ``path`` and return it."""
    from repro.scenarios.trace import record_trace
    from repro.workloads.admission_traffic import bursty_workload

    record_trace(
        bursty_workload(num_edges=16, num_requests=200, capacity=3, random_state=7), path
    )
    return path


def serve_args(trace: str) -> List[str]:
    """The ``repro serve`` flags of every measured start-up."""
    return ["--trace", trace, "--listen", "127.0.0.1:0",
            "--algorithm", "randomized", "--backend", "numpy"]


def parse_import_log(lines: Iterable[str]) -> List[ImportEntry]:
    """The entries of an import log, in log order; other lines are skipped."""
    entries = []
    for line in lines:
        match = _IMPORT_LINE.match(line)
        if match:
            self_us, cumulative_us, indent, name = match.groups()
            entries.append(ImportEntry(name, int(self_us), int(cumulative_us),
                                       (len(indent) - 1) // 2))
    return entries


def import_summary(entries: List[ImportEntry]) -> Dict[str, float]:
    """Modules loaded (all, and ``repro``'s) and the seconds their imports took."""
    names = {e.name for e in entries}
    top_level = min(e.depth for e in entries)
    return {
        "modules": len(names),
        "repro_modules": sum(name.split(".")[0] == "repro" for name in names),
        "imports_s": sum(e.cumulative_us for e in entries if e.depth == top_level) / 1e6,
    }


def serve_import_log(trace: str) -> List[ImportEntry]:
    """Import log of one serve start-up, spawn to its listening line."""
    cmd = [sys.executable, "-X", "importtime", "-m", "repro", "serve", *serve_args(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # stderr (the log) shares the stdout pipe, so neither can fill up unread.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, env=env) as proc:
        try:
            lines = []
            for line in proc.stdout:
                if line.startswith(LISTENING):
                    break
                lines.append(line)
            else:
                raise RuntimeError(f"server exited with {proc.wait()} before listening:\n"
                                   + "".join(lines[-20:]))
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    return parse_import_log(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="profile-startup-") as workdir:
        entries = serve_import_log(write_trace(os.path.join(workdir, "t.jsonl")))
    summary = import_summary(entries)
    print(f"{summary['modules']} modules ({summary['repro_modules']} repro) imported in "
          f"{summary['imports_s'] * 1000:.0f} ms before the server listened")
    print(f"{'cumulative ms':>14} {'self ms':>9}  module")
    for entry in sorted(entries, key=lambda e: -e.cumulative_us)[:25]:
        print(f"{entry.cumulative_us / 1000:>14.1f} {entry.self_us / 1000:>9.1f}  "
              f"{'  ' * entry.depth}{entry.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
