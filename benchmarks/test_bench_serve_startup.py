"""Start-up cost of the network admission service (``serve_startup``).

Spawns ``python -m repro serve --listen 127.0.0.1:0 --algorithm randomized
--backend numpy`` on a fixed trace three times and records the median time
from spawn to its ``service listening on`` line as ``seconds``.  One further
spawn under ``-X importtime`` records where that time goes: how many modules
the start-up loaded and how long their imports took (the profiled run is
slower than an unprofiled one).  Recorded, not gated: single runs on a
shared host move by up to 1.6x.  ``make profile-startup`` prints the same
import log's top entries.
"""

from __future__ import annotations

import statistics
import time

from profile_startup import import_summary, serve_args, serve_import_log, write_trace
from repro.service.smoke import ServerProcess

SPAWNS = 3


def test_bench_serve_startup(tmp_path, bench_recorder):
    trace = write_trace(str(tmp_path / "t.jsonl"))
    runs = []
    for _ in range(SPAWNS):
        start = time.perf_counter()
        server = ServerProcess(serve_args(trace))
        server.wait_listening()
        runs.append(time.perf_counter() - start)
        server.sigterm_and_wait()
    entries = serve_import_log(trace)
    bench_recorder(
        "serve_startup", statistics.median(runs), "numpy", runs_s=runs, **import_summary(entries)
    )
    assert "repro.service.server" in {e.name for e in entries}
