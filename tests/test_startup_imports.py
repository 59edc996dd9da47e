"""The ``repro serve`` import closure stays free of the offline stack.

Serving decides each arrival online; scipy (the offline LP/ILP comparators and
the bicriteria incidence matrix), networkx (``repro.network``) and the
experiment stack have no part in it.  Importing them anyway costs every
start-up and every crash-resume about a second and 55 MB, and leaves tens of
thousands of objects for each full garbage collection to walk.

Each test starts a fresh interpreter with Python's import-time log switched
on (``-X importtime``, or its environment spelling ``PYTHONPROFILEIMPORTTIME``
where the command line is not ours to build) and reads the modules it loaded.
"""

from __future__ import annotations

import fnmatch
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Set

import pytest

import repro
from repro.scenarios.trace import record_trace
from repro.service.smoke import ServerProcess
from repro.workloads.admission_traffic import bursty_workload

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no ``repro serve`` start-up may load, as ``fnmatch`` patterns.
FORBIDDEN = (
    "scipy*",
    "networkx*",
    "repro.offline*",
    "repro.analysis*",
    "repro.experiments*",
    "repro.workloads*",
    "repro.network*",
    "repro.engine.benchmarking",
)

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)\s*$")


def imported_modules(lines: Iterable[str]) -> Set[str]:
    """Module names in a ``-X importtime`` log (other lines are ignored)."""
    return {m.group(1) for m in map(_IMPORT_LINE.match, lines) if m}


def forbidden(modules: Iterable[str], patterns=FORBIDDEN) -> List[str]:
    return sorted(m for m in modules if any(fnmatch.fnmatchcase(m, p) for p in patterns))


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("startup") / "t.jsonl"
    record_trace(
        bursty_workload(num_edges=16, num_requests=200, capacity=3, random_state=7), str(path)
    )
    return path


def _assert_serve_closure(modules: Set[str]) -> None:
    # The log was really read: the serving core itself is in it.
    assert {"repro.service.runtime", "repro.engine.streaming", "numpy"} <= modules
    assert forbidden(modules) == []


class TestServeImportClosure:
    def test_replay_imports_no_offline_stack(self, trace_path, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--trace", str(trace_path), "--algorithm", "randomized", "--backend", "numpy",
             "--log", str(tmp_path / "d.jsonl")],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert '"processed": 200' in proc.stdout
        _assert_serve_closure(imported_modules(proc.stderr.splitlines()))

    def test_listen_imports_no_offline_stack(self, trace_path, tmp_path, monkeypatch):
        # ServerProcess builds its own argv, so the log is switched on through
        # the environment; its stderr shares the stdout pipe it reads.
        monkeypatch.setenv("PYTHONPATH", SRC)
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        server = ServerProcess(
            ["--trace", str(trace_path), "--listen", "127.0.0.1:0",
             "--algorithm", "randomized", "--backend", "numpy",
             "--log", str(tmp_path / "d.jsonl")]
        )
        server.wait_listening()
        server.sigterm_and_wait()
        assert server.proc.stdout.closed
        _assert_serve_closure(imported_modules(server.lines))

    def test_library_and_analysis_import_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro, repro.analysis"],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        modules = imported_modules(proc.stderr.splitlines())
        assert "repro.analysis.invariants" in modules
        assert forbidden(modules, ("scipy*",)) == []
