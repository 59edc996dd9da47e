"""Command-line interface for the reproduction.

Every subcommand routes through the unified run-spec facade
(:mod:`repro.api`): experiments, sweeps and demos all compile down to
:class:`~repro.api.spec.RunSpec` objects executed by
:class:`~repro.api.runner.Runner`, so the CLI, the library API and the
experiment harness share one execution path.

::

    python -m repro list                      # experiments, algorithms, scenarios, backends
    python -m repro list scenarios            # one section only
    python -m repro run E4 --quick            # regenerate one experiment table
    python -m repro run all --quick --jobs 4  # every experiment, 4 workers
    python -m repro run E3 --backend numpy    # vectorized weight backend
    python -m repro demo admission            # small end-to-end admission demo
    python -m repro demo setcover             # small end-to-end set-cover demo
    python -m repro bench --quick             # micro-benchmark per backend + gate
    python -m repro lint                      # AST invariant checker (RPR001..RPR006)

``repro list`` enumerates every registry in one place — experiments,
admission / set-cover / streaming algorithms, scenarios, and weight backends
— replacing the scattered per-subcommand ``--list`` flags (which remain as
aliases: ``repro sweep --list`` still prints the scenario section).

The ``sweep`` subcommand runs the scenario matrix: every named scenario is
generated per trial, every named algorithm runs on it, and the aggregated
competitive ratios are rendered as a cross-scenario comparison table::

    python -m repro sweep --list                          # list scenario keys
    python -m repro sweep --scenarios bursty,zipf_costs,flash_crowd \
        --algorithms fractional,randomized --backend numpy --jobs 4
    python -m repro sweep --scenarios all --algorithms doubling \
        --trials 5 --out sweep.json                       # JSON report
    python -m repro sweep --trace traces/day1.jsonl \
        --algorithms fractional,randomized                # replay a recording

``--scenarios`` takes comma-separated scenario keys (or ``all``); ``--trace``
(repeatable) registers a recorded JSONL trace as one more scenario; ``--out``
writes the aggregated report as JSON.  Cell seeds derive from ``(--seed,
scenario, algorithm)``, so adding a scenario never changes another's numbers
and ``--jobs`` never changes any number at all.

The ``serve`` subcommand is the streaming service front-end: it replays a
JSONL trace through a long-lived :class:`~repro.engine.streaming.
StreamingSession` (or a :class:`~repro.engine.shards.ProcessShardPool` with
``--shards N``), micro-batching arrivals through the compiled fast path,
appending decisions to ``--log``, and checkpointing to ``--checkpoint`` every
``--checkpoint-every`` arrivals::

    python -m repro serve --trace day1.jsonl --algorithm doubling \
        --checkpoint state.json --checkpoint-every 500 --log decisions.jsonl
    # ... interrupted ...
    python -m repro serve --trace day1.jsonl --checkpoint state.json --resume \
        --log decisions.jsonl                 # continues exactly where it stopped

``--workers N`` runs the shards in worker processes instead.  A checkpoint
does not record that choice: ``--resume`` runs the shards in worker processes
only when ``--workers N`` is given again, and in this process otherwise.

With ``--listen HOST:PORT`` the same subcommand becomes a long-lived network
admission service (the asyncio front door in :mod:`repro.service`): arrivals
come in over a versioned JSON wire protocol instead of the trace (the trace
still supplies the capacity map), SIGTERM drains in-flight requests, writes
the checkpoint and exits 0, and ``--resume`` restores a byte-identical
decision log.  ``repro loadtest`` drives a running service and reports
sustained req/s plus p50/p99 admission latency::

    python -m repro serve --trace day1.jsonl --listen 127.0.0.1:7411 \
        --workers 2 --checkpoint state.json --log decisions.jsonl
    python -m repro loadtest --connect 127.0.0.1:7411 --trace day1.jsonl \
        --concurrency 4 --batch 8

Both subcommands are thin adapters over one frozen, eagerly-validated
:class:`~repro.service.ServiceConfig` — the service-layer analogue of
:class:`~repro.api.spec.RunSpec`.

The CLI prints each experiment's result table (on the chosen grid; ``repro
list experiments`` names them) so results can be regenerated and diffed
from a shell.  ``--backend``
selects the weight-mechanism backend every algorithm is built with, and
``--jobs`` fans experiments / trials out over the engine executor; neither
changes any reported number.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.engine.registry import WEIGHT_BACKENDS
from repro.engine.runtime import ensure_builtin_registrations

__all__ = ["main", "build_parser"]


def _backend_choices() -> List[str]:
    ensure_builtin_registrations()
    return WEIGHT_BACKENDS.keys()


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (``--trials``)."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type for seeds fed straight to an RNG (``demo --seed``)."""
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Alon, Azar & Gutner (SPAA 2005): admission control "
        "to minimize rejections and online set cover with repetitions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    backends = _backend_choices()

    list_parser = subparsers.add_parser(
        "list",
        help="list registered experiments, algorithms, scenarios and backends",
    )
    list_parser.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=["all", "experiments", "algorithms", "scenarios", "backends", "lint"],
        help="which registry section to print (default: all)",
    )

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all') and print its table")
    run_parser.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    run_parser.add_argument("--quick", action="store_true", help="use the reduced parameter grid")
    run_parser.add_argument(
        "--trials", type=_positive_int, default=3, help="trials per configuration point"
    )
    run_parser.add_argument("--seed", type=int, default=20050718, help="master seed")
    run_parser.add_argument(
        "--ilp-time-limit", type=float, default=20.0, help="time limit (s) for exact offline solves"
    )
    run_parser.add_argument(
        "--backend", choices=backends, default="python",
        help="weight-mechanism backend used by every algorithm (default: python)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers for experiments and trials (1 = serial, 0 = all cores)",
    )

    demo_parser = subparsers.add_parser("demo", help="run a small end-to-end demo")
    demo_parser.add_argument("problem", choices=["admission", "setcover"], help="which demo to run")
    demo_parser.add_argument("--seed", type=_non_negative_int, default=0, help="random seed")
    demo_parser.add_argument(
        "--backend", choices=backends, default="python",
        help="weight-mechanism backend used by the paper's algorithms",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run the scenario x algorithm matrix and print a comparison table"
    )
    sweep_parser.add_argument(
        "--scenarios", default="bursty,zipf_costs,flash_crowd",
        help="comma-separated scenario keys, or 'all' (default: bursty,zipf_costs,flash_crowd)",
    )
    sweep_parser.add_argument(
        "--algorithms", default="fractional,randomized,doubling",
        help="comma-separated admission-algorithm keys (default: fractional,randomized,doubling)",
    )
    sweep_parser.add_argument(
        "--backend", choices=backends, default="python",
        help="weight-mechanism backend used by every algorithm (default: python)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers per cell (1 = serial, 0 = all cores); never changes results",
    )
    sweep_parser.add_argument("--trials", type=_positive_int, default=3, help="trials per cell")
    sweep_parser.add_argument("--seed", type=int, default=20050718, help="master seed")
    sweep_parser.add_argument(
        "--offline", choices=["lp", "ilp"], default="lp",
        help="offline comparator for integral algorithms (default: lp, a fast lower bound)",
    )
    sweep_parser.add_argument(
        "--ilp-time-limit", type=float, default=20.0, help="time limit (s) for exact offline solves"
    )
    sweep_parser.add_argument(
        "--trace", action="append", default=[], metavar="PATH",
        help="register a recorded JSONL trace as one more scenario (repeatable)",
    )
    sweep_parser.add_argument(
        "--out", type=Path, default=None, help="also write the aggregated report as JSON"
    )
    sweep_parser.add_argument(
        "--streaming", action="store_true",
        help="run every trial through the streaming service layer (same numbers)",
    )
    sweep_parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the registered scenarios and exit",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="stream a JSONL trace through the admission service with checkpoints",
    )
    serve_parser.add_argument(
        "--trace", type=Path, required=True, help="JSONL trace to stream (see `repro sweep --trace`)"
    )
    serve_parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve admission requests over TCP instead of replaying the trace "
        "(the trace still supplies the capacity map; port 0 binds an ephemeral "
        "port, printed on startup)",
    )
    serve_parser.add_argument(
        "--algorithm", default="doubling",
        help="streaming algorithm key: fractional, randomized, doubling, "
        "doubling-fractional (default: doubling)",
    )
    serve_parser.add_argument(
        "--backend", choices=backends, default=None,
        help="weight-mechanism backend (default: python; on --resume the checkpoint's)",
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="session RNG seed")
    serve_parser.add_argument(
        "--shards", type=int, default=None,
        help="partition namespaced edges across N independent sessions, in-process "
        "(default: 1; on --resume the checkpoint's count, which must match when given)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="run the shards in N worker processes instead of in-process; same "
        "decisions either way (default: 1; a checkpoint does not record it, so "
        "repeat it on --resume to keep worker processes)",
    )
    # Reaches no code: edges always partition by namespace.  The flag still
    # parses because perfbench's service_window workload pins
    # `--strategy namespace` (perfbench/service.py).
    serve_parser.add_argument(
        "--strategy", choices=["namespace"], default="namespace",
        help="accepted for compatibility; edges always partition by namespace",
    )
    serve_parser.add_argument(
        "--batch", type=int, default=64, help="micro-batch size through the compiled path"
    )
    serve_parser.add_argument(
        "--batch-wait-ms", type=float, default=2.0, metavar="MS",
        help="with --listen, wait up to MS milliseconds to coalesce concurrent "
        "requests into one engine micro-batch (default: 2.0)",
    )
    serve_parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="checkpoint file to write (and to resume from with --resume)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="write the checkpoint every K arrivals (0 = only when the run ends)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="restore the session from --checkpoint and continue where it stopped "
        "(a shard pool resumes in this process unless --workers N is given again)",
    )
    serve_parser.add_argument(
        "--max-arrivals", type=int, default=None, metavar="N",
        help="stop after processing N arrivals this run (checkpoint is still written)",
    )
    serve_parser.add_argument(
        "--log", type=Path, default=None,
        help="append every decision as one JSONL line (resume keeps appending)",
    )

    loadtest_parser = subparsers.add_parser(
        "loadtest",
        help="drive a running admission service and report req/s + p50/p99 latency",
    )
    loadtest_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the running service (see `repro serve --listen`)",
    )
    loadtest_parser.add_argument(
        "--trace", type=Path, required=True,
        help="JSONL trace supplying the arrivals to submit",
    )
    loadtest_parser.add_argument(
        "--concurrency", type=int, default=1,
        help="client connections driving the service in parallel (default: 1)",
    )
    loadtest_parser.add_argument(
        "--batch", type=int, default=1,
        help="arrivals per submit_batch round trip (1 = one submit per call)",
    )
    loadtest_parser.add_argument(
        "--max-arrivals", type=int, default=None, metavar="N",
        help="submit only the trace's first N arrivals",
    )
    loadtest_parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the measurements as JSON",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repo's AST invariant checker (rules RPR001..RPR006)",
    )
    lint_parser.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help="file or directory to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the findings as a versioned JSON report instead of text",
    )
    lint_parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run, e.g. RPR001,RPR005 (default: all)",
    )
    lint_parser.add_argument(
        "--update-fingerprints", action="store_true",
        help="rewrite lint/fingerprints.json after a schema version bump "
        "(refused when fields changed without one)",
    )

    bench_parser = subparsers.add_parser(
        "bench", help="run the weight-update micro-benchmark per backend and gate regressions"
    )
    bench_parser.add_argument("--quick", action="store_true", help="smaller benchmark workload")
    bench_parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON to compare against (default: benchmarks/baseline_bench.json)",
    )
    bench_parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the measured numbers to the baseline file instead of gating",
    )
    bench_parser.add_argument(
        "--requests", type=int, default=None,
        help="override the weight-update workload's request count (testing hook)",
    )
    bench_parser.add_argument(
        "--scaling-requests", type=int, default=None,
        help="override the scaling workload's request count (testing hook)",
    )
    bench_parser.add_argument(
        "--shard-requests", type=int, default=None,
        help="override the shard-scaling workload's arrival count (testing hook; "
        "also forces the shard sweep to run under --quick)",
    )
    bench_parser.add_argument(
        "--stream-requests", type=int, default=None,
        help="override the stream-resume workload's arrival count (testing hook)",
    )
    bench_parser.add_argument(
        "--service-requests", type=int, default=None,
        help="override the service-loadtest workload's request count (testing hook)",
    )

    return parser


def _scenario_lines() -> List[str]:
    """One formatted line per registered scenario (shared by list and sweep --list)."""
    from repro.scenarios import get_scenario, scenario_keys

    return [f"{key:<18} {get_scenario(key).description}" for key in scenario_keys()]


def _print_scenarios(out) -> None:
    for line in _scenario_lines():
        print(line, file=out)


def _cmd_list(args, out) -> int:
    """Enumerate every registry in one place (``repro list [section]``)."""
    what = getattr(args, "what", "all")
    sections = []
    if what in ("all", "experiments"):
        from repro.experiments import all_experiments

        experiments = all_experiments()
        lines = []
        for experiment_id in sorted(experiments, key=lambda e: int(e[1:]) if e[1:].isdigit() else 0):
            module = sys.modules[experiments[experiment_id].__module__]
            title = getattr(module, "TITLE", "")
            validates = getattr(module, "VALIDATES", "")
            lines.append(f"{experiment_id:<4} {title} — {validates}")
        sections.append(("experiments", lines))
    if what in ("all", "algorithms"):
        ensure_builtin_registrations()
        from repro.engine.registry import ADMISSION_ALGORITHMS, SETCOVER_ALGORITHMS
        from repro.engine.streaming import STREAMING_ALGORITHMS

        sections.append(("admission algorithms", ADMISSION_ALGORITHMS.keys()))
        sections.append(("set-cover algorithms", SETCOVER_ALGORITHMS.keys()))
        sections.append(("streaming algorithms", STREAMING_ALGORITHMS.keys()))
    if what in ("all", "scenarios"):
        sections.append(("scenarios", _scenario_lines()))
    if what in ("all", "backends"):
        sections.append(("weight backends", _backend_choices()))
    if what in ("all", "lint"):
        from repro.lint import describe_rules

        sections.append(
            ("lint rules", [f"{rid:<8} {desc}" for rid, desc in describe_rules().items()])
        )
    # Headings disambiguate whenever more than one registry prints (keys like
    # "doubling" legitimately appear in several registries).
    for index, (heading, lines) in enumerate(sections):
        if len(sections) > 1:
            if index:
                print(file=out)
            print(f"[{heading}]", file=out)
        for line in lines:
            print(line, file=out)
    return 0


def _experiment_job(item):
    """Run one ``(experiment_id, ExperimentConfig)`` item.

    Module-level so the process pool can pickle it.
    """
    from repro.experiments import run_experiment

    experiment_id, config = item
    return run_experiment(experiment_id, config)


def _cmd_run(args, out) -> int:
    from repro.engine.executor import execute
    from repro.experiments import ExperimentConfig, all_experiments, run_experiment

    config = ExperimentConfig(
        quick=args.quick,
        seed=args.seed,
        num_trials=args.trials,
        ilp_time_limit=args.ilp_time_limit,
        backend=args.backend,
        jobs=args.jobs,
    )
    if args.experiment.lower() == "all":
        ids = sorted(all_experiments(), key=lambda e: int(e[1:]))
    else:
        ids = [args.experiment.upper()]
    if len(ids) > 1 and config.engine.effective_jobs > 1:
        # Fan whole experiments out across processes; each worker runs its
        # trials serially so the cores are not oversubscribed.
        worker_config = dataclasses.replace(config, jobs=1)
        results = execute(
            _experiment_job,
            [(experiment_id, worker_config) for experiment_id in ids],
            jobs=config.engine.effective_jobs,
        )
    else:
        results = [run_experiment(experiment_id, config) for experiment_id in ids]
    for result in results:
        print(result.table(), file=out)
        for value in result.metadata.values():
            if isinstance(value, str):
                print(value, file=out)
        print(file=out)
    return 0


def _cmd_demo(args, out) -> int:
    from repro.analysis import evaluate_admission_run, evaluate_setcover_run, format_records
    from repro.core import run_admission, run_setcover
    from repro.engine.runtime import make_admission_algorithm, make_setcover_algorithm
    from repro.workloads import overloaded_edge_adversary, random_setcover_instance

    if args.problem == "admission":
        instance = overloaded_edge_adversary(16, 2, num_hot_edges=3, random_state=args.seed)
        print(instance.describe(), file=out)
        records = []
        paper = make_admission_algorithm(
            "doubling", instance, random_state=args.seed, backend=args.backend
        )
        records.append(evaluate_admission_run(instance, run_admission(paper, instance)))
        for baseline_key in ("reject-when-full", "keep-expensive"):
            algo = make_admission_algorithm(baseline_key, instance)
            records.append(evaluate_admission_run(instance, run_admission(algo, instance)))
        print(format_records(records, title="Admission control vs offline optimum"), file=out)
    else:
        instance = random_setcover_instance(30, 14, 55, random_state=args.seed)
        print(instance.describe(), file=out)
        records = []
        reduction = make_setcover_algorithm(
            "reduction", instance, random_state=args.seed, backend=args.backend
        )
        records.append(evaluate_setcover_run(instance, run_setcover(reduction, instance)))
        bicriteria = make_setcover_algorithm(
            "bicriteria", instance, eps=0.2, backend=args.backend
        )
        records.append(evaluate_setcover_run(instance, run_setcover(bicriteria, instance)))
        print(format_records(records, title="Online set cover with repetitions vs offline optimum"), file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.engine.config import EngineConfig
    from repro.engine.sweep import run_sweep_specs
    from repro.scenarios import get_scenario, scenario_from_trace, scenario_keys

    if args.list_scenarios:
        # Alias for `repro list scenarios`, kept for muscle memory.
        _print_scenarios(out)
        return 0

    if args.scenarios.strip().lower() == "all":
        scenarios = list(scenario_keys())
    else:
        scenarios = [s for s in (p.strip() for p in args.scenarios.split(",")) if s]
    scenario_list = [get_scenario(key) for key in scenarios]
    scenario_list.extend(scenario_from_trace(path, register=False) for path in args.trace)
    algorithms = [a for a in (p.strip() for p in args.algorithms.split(",")) if a]

    result = run_sweep_specs(
        scenario_list,
        algorithms,
        config=EngineConfig(backend=args.backend, jobs=args.jobs),
        num_trials=args.trials,
        seed=args.seed,
        offline=args.offline,
        ilp_time_limit=args.ilp_time_limit,
        streaming=args.streaming,
    )
    print(result.report(), file=out)
    if args.out is not None:
        result.save(args.out)
        print(f"\nreport written to {args.out}", file=out)
    return 0


def _service_config_from_args(args):
    """Compile serve's argparse namespace into one validated ServiceConfig."""
    from repro.service import ServiceConfig

    return ServiceConfig(
        trace=args.trace,
        listen=args.listen,
        algorithm=args.algorithm,
        backend=args.backend,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        batch=args.batch,
        batch_wait_ms=args.batch_wait_ms,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        max_arrivals=args.max_arrivals,
        log=args.log,
    )


def _cmd_serve(args, out) -> int:
    """Thin adapter: argparse namespace -> ServiceConfig -> the right loop.

    Everything interesting lives in :mod:`repro.service`: the frozen config
    validates eagerly (every ``error:`` line below is its message, verbatim),
    ``serve_replay`` is the classic trace-replay loop, and
    :class:`~repro.service.AdmissionService` is the asyncio front door that
    ``--listen`` selects.
    """
    from repro.engine.registry import RegistryError
    from repro.instances.serialize import CheckpointFormatError, TraceFormatError
    from repro.service import AdmissionService, ServiceConfigError
    from repro.service.runtime import serve_replay

    try:
        config = _service_config_from_args(args)
        if config.is_network:
            return AdmissionService(config, out=out).run()
        return serve_replay(config, out)
    except (ServiceConfigError, RegistryError, CheckpointFormatError, TraceFormatError) as err:
        print(f"error: {err}", file=out)
        return 2


def _cmd_loadtest(args, out) -> int:
    """Drive a running admission service and report throughput + latency."""
    from repro.instances.serialize import load_admission_trace
    from repro.service import ServiceError, run_loadtest
    from repro.service.config import ServiceConfigError, parse_address

    try:
        host, port = parse_address(args.connect, flag="--connect")
        if args.concurrency < 1:
            raise ServiceConfigError("--concurrency must be >= 1")
        if args.batch < 1:
            raise ServiceConfigError("--batch must be >= 1")
        if not args.trace.exists():
            raise ServiceConfigError(f"trace file not found: {args.trace}")
    except ServiceConfigError as err:
        print(f"error: {err}", file=out)
        return 2
    requests = list(load_admission_trace(str(args.trace)).requests)
    if args.max_arrivals is not None:
        requests = requests[: args.max_arrivals]
    try:
        result = run_loadtest(
            host, port, requests, concurrency=args.concurrency, batch=args.batch
        )
    except (ServiceError, OSError) as err:
        print(f"error: {err}", file=out)
        return 1
    record = result.record()
    print(
        f"loadtest: {record['requests']} requests over {args.concurrency} connection(s) "
        f"in {record['seconds']:.3f}s — {record['requests_per_sec']:,.0f} req/s, "
        f"p50 {record['p50_ms']:.3f}ms, p99 {record['p99_ms']:.3f}ms, "
        f"{record['errors']} errors",
        file=out,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"measurements written to {args.out}", file=out)
    return 1 if record["errors"] else 0


def _cmd_lint(args, out) -> int:
    """Run the AST invariant checker (``repro lint``).

    Exit codes follow the usual linter convention: 0 clean, 1 findings (or
    unreadable files / stale suppressions), 2 usage errors such as an unknown
    rule id or a missing path.
    """
    import repro
    from repro.lint import LintConfig, report_json, report_text, run_lint

    root = args.path if args.path is not None else Path(repro.__file__).parent
    if not root.exists():
        print(f"error: no such file or directory: {root}", file=out)
        return 2
    rule_ids = None
    if args.rules:
        rule_ids = [r for r in (p.strip() for p in args.rules.split(",")) if r]
    config = LintConfig(root=root, update_fingerprints=args.update_fingerprints)
    result = run_lint(config, rule_ids)
    if args.as_json:
        report_json(result, out)
    else:
        report_text(result, out)
    if result.ok:
        return 0
    return 2 if not result.rules_run else 1


def _cmd_bench(args, out) -> int:
    from repro.engine.benchmarking import (
        REGRESSION_FACTOR,
        SCALING_THROUGHPUT_FLOOR,
        check_shard_scaling,
        check_throughput_floor,
        compare_to_baseline,
        default_baseline_path,
        run_scaling_bench,
        run_service_loadtest_bench,
        run_shard_scaling_suite,
        run_stream_resume_bench,
        run_sweep_bench,
        run_weight_update_bench,
        scaling_100k_workload,
        scaling_workload,
        service_loadtest_workload,
        stream_resume_workload,
        sweep_workload,
        weight_update_workload,
    )

    workload = weight_update_workload(quick=args.quick)
    if args.requests is not None:
        workload = dataclasses.replace(workload, num_requests=args.requests)
    scaling = scaling_workload()
    if args.scaling_requests is not None:
        scaling = dataclasses.replace(scaling, num_requests=args.scaling_requests)
    results = []
    for backend in _backend_choices():
        result = run_weight_update_bench(backend, workload)
        results.append(result)
        print(
            f"weight_update[{result.backend}]: {result.seconds:.3f}s "
            f"({result.augmentations} augmentations, "
            f"fractional cost {result.fractional_cost:.1f})",
            file=out,
        )
    for backend in _backend_choices():
        result = run_scaling_bench(backend, scaling)
        results.append(result)
        print(
            f"scaling_10k[{result.backend}]: {result.seconds:.3f}s "
            f"({scaling.num_requests} requests end-to-end, "
            f"{result.augmentations} augmentations, "
            f"{result.requests_per_sec:,.0f} req/s)",
            file=out,
        )
    for backend in _backend_choices():
        result = run_scaling_bench(backend, scaling, vectorized=False)
        results.append(result)
        print(
            f"scaling_10k_scalar[{result.backend}]: {result.seconds:.3f}s "
            f"(per-arrival escape hatch, {result.requests_per_sec:,.0f} req/s)",
            file=out,
        )
    scaling_100k = scaling_100k_workload()
    if not args.quick:
        # 100k arrivals only on the backends the throughput floor gates — the
        # scalar reference backend would dominate the bench's wall clock.
        for backend in _backend_choices():
            if backend not in SCALING_THROUGHPUT_FLOOR:
                continue
            result = run_scaling_bench(backend, scaling_100k, name="scaling_100k")
            results.append(result)
            print(
                f"scaling_100k[{result.backend}]: {result.seconds:.3f}s "
                f"({scaling_100k.num_requests} requests end-to-end, "
                f"{result.requests_per_sec:,.0f} req/s)",
                file=out,
            )
    shard_workload = scaling_100k
    if args.shard_requests is not None:
        shard_workload = dataclasses.replace(scaling_100k, num_requests=args.shard_requests)
    shard_results = []
    if not args.quick or args.shard_requests is not None:
        # Multi-process sweep on the numpy backend only: the pool measures
        # process scale-out, and one namespaced trace is shared across counts.
        shard_results = run_shard_scaling_suite("numpy", shard_workload)
        results.extend(shard_results)
        for result in shard_results:
            print(
                f"{result.name}[{result.backend}]: {result.seconds:.3f}s "
                f"({result.requests} namespaced arrivals over worker processes, "
                f"{result.requests_per_sec:,.0f} req/s)",
                file=out,
            )
    sweep = sweep_workload()
    for backend in _backend_choices():
        result = run_sweep_bench(backend, sweep)
        results.append(result)
        print(
            f"sweep_small[{result.backend}]: {result.seconds:.3f}s "
            f"({result.augmentations} cells, mean ratio {result.fractional_cost:.3f})",
            file=out,
        )
    stream = stream_resume_workload()
    if args.stream_requests is not None:
        stream = dataclasses.replace(stream, num_requests=args.stream_requests)
    for backend in _backend_choices():
        result = run_stream_resume_bench(backend, stream)
        results.append(result)
        print(
            f"stream_resume[{result.backend}]: {result.seconds:.3f}s "
            f"({stream.num_requests} arrivals streamed + one mid-stream restore, "
            f"fractional cost {result.fractional_cost:.1f})",
            file=out,
        )
    service = service_loadtest_workload()
    if args.service_requests is not None:
        service = dataclasses.replace(service, num_requests=args.service_requests)
    # Network loadtest on the numpy backend only: it measures the asyncio
    # front door (wire codec + micro-batching dispatcher), not the engine —
    # a second backend would time the same socket path twice.
    result = run_service_loadtest_bench("numpy", service)
    results.append(result)
    print(
        f"service_loadtest[{result.backend}]: {result.seconds:.3f}s "
        f"({result.requests} requests over TCP, "
        f"{result.requests_per_sec:,.0f} req/s, "
        f"p50 {result.p50_ms:.3f}ms, p99 {result.p99_ms:.3f}ms)",
        file=out,
    )
    by_backend = {r.backend: r.seconds for r in results if r.name == "weight_update"}
    if "python" in by_backend and "numpy" in by_backend and by_backend["numpy"] > 0:
        print(
            f"numpy speedup over python: {by_backend['python'] / by_backend['numpy']:.2f}x",
            file=out,
        )

    baseline_path = args.baseline or default_baseline_path()
    if args.write_baseline:
        payload = {
            "schema": 1,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "workloads": {
                "weight_update": dataclasses.asdict(workload),
                "scaling_10k": dataclasses.asdict(scaling),
                "scaling_100k": dataclasses.asdict(scaling_100k),
                "shard_scaling": dataclasses.asdict(shard_workload),
                "sweep_small": dataclasses.asdict(sweep),
                "stream_resume": dataclasses.asdict(stream),
                "service_loadtest": dataclasses.asdict(service),
            },
            "benchmarks": {f"{r.name}[{r.backend}]": r.seconds for r in results},
        }
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {baseline_path}", file=out)
        return 0

    lines, failures = compare_to_baseline(results, baseline_path)
    floor_lines, floor_failures = check_throughput_floor(results)
    shard_lines, shard_failures = check_shard_scaling(shard_results)
    floor_failures = floor_failures + shard_failures
    for line in lines + floor_lines + shard_lines:
        print(line, file=out)
    if failures:
        print(
            f"FAIL: {len(failures)} benchmark(s) regressed beyond {REGRESSION_FACTOR:.1f}x",
            file=out,
        )
        print(
            "note: the baseline is absolute wall clock from the machine that wrote it; "
            "on different hardware refresh it with `make bench-baseline` before gating",
            file=out,
        )
        return 1
    if floor_failures:
        for line in floor_failures:
            print(f"FAIL: {line}", file=out)
        return 1
    print("benchmark gate passed", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args, out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "demo":
        return _cmd_demo(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "loadtest":
        return _cmd_loadtest(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
