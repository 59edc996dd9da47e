"""Traced launcher of ``repro serve``: install the layer wrappers, then serve.

``python3 perfbench/serve_traced.py SPANS_FILE -- <repro serve arguments>``
runs the unmodified ``repro serve`` entry point with :class:`~perfbench.
tracing.Tracer` installed, and on exit writes every span plus the session
algorithm's public counters to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    spans_file, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_traced.py SPANS_FILE -- <repro serve arguments>")
    from perfbench.tracing import Tracer, algorithm_counters
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    code = repro_main(["serve", *serve_args])
    tracer.uninstall()
    session = tracer.session
    counters = algorithm_counters(session.algorithm) if session is not None else {}
    tracer.dump(spans_file, counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
