"""Shared configuration for the benchmark suite.

Each ``test_bench_e*.py`` file regenerates one experiment of the index
``repro list experiments`` prints (the paper has no tables or figures of its
own).  The benchmark measures the wall-clock cost of regenerating the
experiment's rows and prints the resulting table, so the numbers can be
compared with a ``repro run`` of the same experiment directly from the
benchmark output.

Besides the human-readable tables the session also emits a machine-readable
``BENCH_engine.json`` at the repository root: per-experiment (and per-micro-
benchmark) wall-clock seconds together with the weight backend that produced
them, so the performance trajectory can be tracked PR-over-PR with a plain
``diff``/``jq``.  Set ``REPRO_BENCH_BACKEND=numpy`` to run the whole suite on
the vectorized backend.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments import ExperimentConfig

# Benchmarks use the quick grid with a single trial so the whole suite stays
# in the tens-of-seconds range; ``repro run`` without ``--quick`` runs the
# full grid.
BENCH_CONFIG = ExperimentConfig(
    quick=True,
    num_trials=1,
    ilp_time_limit=5.0,
    backend=os.environ.get("REPRO_BENCH_BACKEND", "python"),
)

#: Collected wall-clock records, flushed to BENCH_engine.json at session end.
_BENCH_RECORDS: Dict[str, Dict[str, Any]] = {}


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration used by every benchmark."""
    return BENCH_CONFIG


def record_bench(name: str, seconds: float, backend: str, **extra: Any) -> None:
    """Record one benchmark's wall clock for the BENCH_engine.json report."""
    _BENCH_RECORDS[name] = {"seconds": seconds, "backend": backend, **extra}


@pytest.fixture(scope="session")
def bench_recorder():
    """Fixture handle on :func:`record_bench` for the micro-benchmarks."""
    return record_bench


def run_and_report(benchmark, experiment_id: str, config: ExperimentConfig):
    """Benchmark one experiment, print its table, and record its wall clock."""
    from repro.experiments import run_experiment

    start = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, config), rounds=1, iterations=1, warmup_rounds=0
    )
    record_bench(experiment_id, time.perf_counter() - start, config.backend)
    print()
    print(result.table())
    for key, value in result.metadata.items():
        if isinstance(value, str):
            print(value)
    return result


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's records into the report next to the repo root.

    Entries the session ran replace their old values and every other entry
    stays, so running one benchmark file keeps the rest of the report; an
    absent or unreadable report starts fresh.
    """
    if not _BENCH_RECORDS:
        return
    path = Path(str(session.config.rootpath)) / "BENCH_engine.json"
    try:
        kept = dict(json.loads(path.read_text())["benchmarks"])
    except (OSError, ValueError, KeyError, TypeError):
        kept = {}
    payload = {
        "schema": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "default_backend": BENCH_CONFIG.backend,
        "benchmarks": dict(sorted({**kept, **_BENCH_RECORDS}.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
