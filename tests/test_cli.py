"""Tests for the command-line interface (python -m repro ...)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.experiment == "E1"
        assert not args.quick
        assert args.trials == 3

    def test_demo_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "unknown"])


class TestListCommand:
    def test_lists_all_ten_experiments(self):
        code, output = run_cli(["list"])
        assert code == 0
        for k in range(1, 11):
            assert f"E{k}" in output

    def test_lists_every_registry_section(self):
        code, output = run_cli(["list"])
        assert code == 0
        for heading in ("[experiments]", "[admission algorithms]", "[set-cover algorithms]",
                        "[streaming algorithms]", "[scenarios]", "[weight backends]"):
            assert heading in output
        assert "fractional" in output
        assert "bursty" in output
        assert "numpy" in output

    def test_list_single_section(self):
        code, output = run_cli(["list", "backends"])
        assert code == 0
        assert output.split() == ["numpy", "python"]

    def test_list_algorithms_keeps_registry_headings(self):
        # Keys like "doubling" appear in several registries; the headings are
        # what disambiguates them whenever more than one section prints.
        code, output = run_cli(["list", "algorithms"])
        assert code == 0
        for heading in ("[admission algorithms]", "[set-cover algorithms]",
                        "[streaming algorithms]"):
            assert heading in output

    def test_list_scenarios_matches_sweep_list_alias(self):
        code_new, scenarios = run_cli(["list", "scenarios"])
        code_old, alias = run_cli(["sweep", "--list"])
        assert code_new == code_old == 0
        assert scenarios == alias

    def test_list_rejects_unknown_section(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "nonsense"])


class TestRunCommand:
    def test_run_single_experiment_quick(self):
        code, output = run_cli(["run", "E2", "--quick", "--trials", "1", "--ilp-time-limit", "5"])
        assert code == 0
        assert "[E2]" in output
        assert "Lemma 1" in output

    def test_run_rejects_zero_trials_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E1", "--quick", "--trials", "0"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "argument --trials: must be at least 1, got 0" in capsys.readouterr().err

    def test_run_accepts_negative_master_seed(self):
        # Trial seeds derive from --seed, so it may be negative here.
        code, output = run_cli(["run", "E2", "--quick", "--trials", "1", "--seed", "-1"])
        assert code == 0
        assert "[E2]" in output

    def test_run_lowercase_id(self):
        code, output = run_cli(["run", "e10", "--quick", "--trials", "1"])
        assert code == 0
        assert "[E10]" in output

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_cli(["run", "E42", "--quick"])


class TestDemoCommand:
    def test_admission_demo(self):
        code, output = run_cli(["demo", "admission", "--seed", "1"])
        assert code == 0
        assert "Admission control vs offline optimum" in output
        assert "DoublingAdmissionControl" in output

    def test_setcover_demo(self):
        code, output = run_cli(["demo", "setcover", "--seed", "1"])
        assert code == 0
        assert "Online set cover with repetitions" in output

    def test_demo_numpy_backend(self):
        code, output = run_cli(["demo", "admission", "--seed", "1", "--backend", "numpy"])
        assert code == 0
        assert "Admission control vs offline optimum" in output

    @pytest.mark.parametrize("problem", ["admission", "setcover"])
    def test_demo_rejects_negative_seed_as_usage_error(self, capsys, problem):
        # The demo seeds numpy's generator directly, which refuses negatives.
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", problem, "--seed", "-1"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


class TestEngineFlags:
    def test_run_backend_and_jobs_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.backend == "python"
        assert args.jobs == 1

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--backend", "cuda"])

    @pytest.mark.parametrize("flag", ["--no-record", "--no-compile"])
    def test_run_rejects_removed_flags(self, flag):
        # Recording and compilation are fixed by the code, not by flags.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", flag])

    def test_run_with_numpy_backend(self):
        code, output = run_cli(
            ["run", "E2", "--quick", "--trials", "1", "--ilp-time-limit", "5",
             "--backend", "numpy"]
        )
        assert code == 0
        assert "[E2]" in output

    def test_run_single_with_jobs(self):
        code, output = run_cli(
            ["run", "E2", "--quick", "--trials", "1", "--ilp-time-limit", "5", "--jobs", "2"]
        )
        assert code == 0
        assert "[E2]" in output


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scenarios == "bursty,zipf_costs,flash_crowd"
        assert args.algorithms == "fractional,randomized,doubling"
        assert args.offline == "lp"
        assert args.jobs == 1

    def test_sweep_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "cuda"])

    def test_sweep_list_scenarios(self):
        code, output = run_cli(["sweep", "--list"])
        assert code == 0
        for key in ("bursty", "zipf_costs", "flash_crowd", "diurnal", "topology_stress"):
            assert key in output

    def test_sweep_small_matrix(self):
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms",
             "fractional,reject-when-full", "--trials", "1", "--seed", "3"]
        )
        assert code == 0
        assert "Cross-scenario comparison" in output
        assert "cheap_expensive" in output
        assert "ratio[fractional]" in output
        assert "ratio[reject-when-full]" in output

    def test_sweep_rejects_zero_trials_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scenarios", "cheap_expensive", "--algorithms", "fractional",
                  "--trials", "0"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "argument --trials: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("streaming", [[], ["--streaming"]], ids=["batch", "streaming"])
    def test_sweep_accepts_negative_master_seed(self, streaming):
        # Cell seeds derive from --seed, so it may be negative here, also
        # when the trials run through the serving layer.
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms", "fractional,randomized",
             "--trials", "1", "--seed", "-1", *streaming]
        )
        assert code == 0
        assert "ratio[randomized]" in output

    def test_sweep_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="scenario"):
            run_cli(["sweep", "--scenarios", "no-such-scenario", "--algorithms", "fractional"])

    def test_sweep_out_writes_json(self, tmp_path):
        import json

        out_path = tmp_path / "sweep.json"
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms", "reject-when-full",
             "--trials", "1", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenarios"] == ["cheap_expensive"]
        assert payload["algorithms"] == ["reject-when-full"]
        assert len(payload["cells"]) == 1

    def test_sweep_report_and_out_document_are_pinned(self, tmp_path):
        """The exact stdout of ``repro sweep`` and the layout of its ``--out`` JSON."""
        import json

        out_path = tmp_path / "sweep.json"
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms",
             "fractional,reject-when-full", "--trials", "2", "--seed", "3",
             "--out", str(out_path)]
        )
        assert code == 0
        assert output == (
            "Scenario sweep — backend=python, trials=2, seed=3, offline=lp\n"
            "scenario         algorithm         trials  ratio_mean  ratio_max  online_mean  "
            "offline_mean  feasible\n"
            "---------------  ----------------  ------  ----------  ---------  -----------  "
            "------------  --------\n"
            "cheap_expensive  fractional        2       1.671       1.671      33.421       "
            "20.000        yes     \n"
            "cheap_expensive  reject-when-full  2       50.000      50.000     1000.000     "
            "20.000        yes     \n"
            "\n"
            "Cross-scenario comparison (mean competitive ratio)\n"
            "scenario         ratio[fractional]  ratio[reject-when-full]\n"
            "---------------  -----------------  -----------------------\n"
            "cheap_expensive  1.671              50.000                 \n"
            "\n"
            f"report written to {out_path}\n"
        )
        payload = json.loads(out_path.read_text())
        assert list(payload) == [
            "schema", "backend", "seed", "num_trials", "offline", "scenarios", "algorithms",
            "cells",
        ]
        assert {k: payload[k] for k in list(payload)[:-1]} == {
            "schema": 1, "backend": "python", "seed": 3, "num_trials": 2, "offline": "lp",
            "scenarios": ["cheap_expensive"], "algorithms": ["fractional", "reject-when-full"],
        }
        cell_keys = [
            "scenario", "algorithm", "trials", "ratio_mean", "ratio_max", "online_mean",
            "offline_mean", "feasible", "ratios",
        ]
        assert [list(cell) for cell in payload["cells"]] == [cell_keys, cell_keys]
        fractional, baseline = payload["cells"]
        assert fractional == {
            "scenario": "cheap_expensive", "algorithm": "fractional", "trials": 2,
            "ratio_mean": pytest.approx(1.6710700135802004),
            "ratio_max": pytest.approx(1.6710700135802004),
            "online_mean": pytest.approx(33.42140027160401),
            "offline_mean": pytest.approx(20.0), "feasible": True,
            "ratios": pytest.approx([1.6710700135802004, 1.6710700135802004]),
        }
        assert baseline == {
            "scenario": "cheap_expensive", "algorithm": "reject-when-full", "trials": 2,
            "ratio_mean": pytest.approx(50.0), "ratio_max": pytest.approx(50.0),
            "online_mean": pytest.approx(1000.0), "offline_mean": pytest.approx(20.0),
            "feasible": True, "ratios": pytest.approx([50.0, 50.0]),
        }

    def test_streaming_sweep_with_two_baselines_is_pinned(self, tmp_path):
        """``--streaming`` runs baselines through the session fallback, one column each."""
        import json

        out_path = tmp_path / "sweep.json"
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms",
             "fractional,reject-when-full,keep-expensive", "--trials", "2", "--seed", "3",
             "--streaming", "--out", str(out_path)]
        )
        assert code == 0
        assert output == (
            "Scenario sweep — backend=python, trials=2, seed=3, offline=lp\n"
            "scenario         algorithm         trials  ratio_mean  ratio_max  online_mean  "
            "offline_mean  feasible\n"
            "---------------  ----------------  ------  ----------  ---------  -----------  "
            "------------  --------\n"
            "cheap_expensive  fractional        2       1.671       1.671      33.421       "
            "20.000        yes     \n"
            "cheap_expensive  reject-when-full  2       50.000      50.000     1000.000     "
            "20.000        yes     \n"
            "cheap_expensive  keep-expensive    2       1.000       1.000      20.000       "
            "20.000        yes     \n"
            "\n"
            "Cross-scenario comparison (mean competitive ratio)\n"
            "scenario         ratio[fractional]  ratio[reject-when-full]  ratio[keep-expensive]\n"
            "---------------  -----------------  -----------------------  ---------------------\n"
            "cheap_expensive  1.671              50.000                   1.000                \n"
            "\n"
            f"report written to {out_path}\n"
        )
        payload = json.loads(out_path.read_text())
        assert payload["algorithms"] == ["fractional", "reject-when-full", "keep-expensive"]
        assert [(c["algorithm"], c["trials"]) for c in payload["cells"]] == [
            ("fractional", 2), ("reject-when-full", 2), ("keep-expensive", 2),
        ]
        assert [c["ratios"] for c in payload["cells"]] == [
            pytest.approx([1.6710700135802004] * 2), pytest.approx([50.0] * 2),
            pytest.approx([1.0] * 2),
        ]

    def test_sweep_replays_recorded_trace(self, tmp_path):
        from repro.scenarios import build_scenario, record_trace

        trace = record_trace(build_scenario("cheap_expensive"), tmp_path / "t.jsonl")
        code, output = run_cli(
            ["sweep", "--scenarios", "cheap_expensive", "--algorithms", "reject-when-full",
             "--trials", "1", "--trace", str(trace)]
        )
        assert code == 0
        assert "trace:t" in output


class TestServeCommand:
    @pytest.fixture
    def trace_path(self, tmp_path):
        from repro.scenarios import record_trace
        from repro.workloads import bursty_workload

        instance = bursty_workload(num_edges=12, num_requests=80, capacity=3, random_state=7)
        return record_trace(instance, tmp_path / "t.jsonl")

    def test_serve_whole_trace(self, trace_path):
        code, output = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "doubling", "--seed", "5"]
        )
        assert code == 0
        assert "processed 80 arrivals" in output
        assert '"rejection_cost"' in output

    def test_serve_checkpoint_then_resume(self, trace_path, tmp_path):
        checkpoint = tmp_path / "ck.json"
        log = tmp_path / "log.jsonl"
        code, _ = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "randomized",
             "--backend", "numpy", "--seed", "3", "--checkpoint", str(checkpoint),
             "--max-arrivals", "40", "--log", str(log)]
        )
        assert code == 0
        assert checkpoint.exists()
        code, output = run_cli(
            ["serve", "--trace", str(trace_path), "--resume",
             "--checkpoint", str(checkpoint), "--log", str(log)]
        )
        assert code == 0
        assert "resumed at arrival 40" in output
        full_log = tmp_path / "full.jsonl"
        code, _ = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "randomized",
             "--backend", "numpy", "--seed", "3", "--log", str(full_log)]
        )
        assert code == 0
        assert log.read_text() == full_log.read_text()

    def test_serve_sharded(self, tmp_path):
        from repro.scenarios import record_trace
        from repro.workloads import adversarial_mix_workload

        trace = record_trace(
            adversarial_mix_workload(num_edges=8, capacity=2, random_state=3),
            tmp_path / "mix.jsonl",
        )
        code, output = run_cli(
            ["serve", "--trace", str(trace), "--shards", "3", "--algorithm", "doubling"]
        )
        assert code == 0
        assert '"num_shards": 3' in output

    def test_serve_sharded_resume_log_is_byte_identical(self, tmp_path):
        # Regression: sharded decision entries must come out in arrival order,
        # not shard order — shard-grouped emission made the combined log
        # depend on batch boundaries, which shift across a resume.
        from repro.scenarios import record_trace
        from repro.workloads import adversarial_mix_workload

        trace = record_trace(
            adversarial_mix_workload(num_edges=8, capacity=2, random_state=3),
            tmp_path / "mix.jsonl",
        )
        checkpoint = tmp_path / "ck.json"
        log = tmp_path / "log.jsonl"
        base = ["serve", "--trace", str(trace), "--shards", "3",
                "--algorithm", "doubling", "--seed", "2"]
        code, _ = run_cli(
            base + ["--checkpoint", str(checkpoint), "--max-arrivals", "30",
                    "--log", str(log)]
        )
        assert code == 0
        code, _ = run_cli(
            ["serve", "--trace", str(trace), "--shards", "3", "--resume",
             "--checkpoint", str(checkpoint), "--log", str(log)]
        )
        assert code == 0
        full_log = tmp_path / "full.jsonl"
        code, _ = run_cli(base + ["--log", str(full_log)])
        assert code == 0
        assert log.read_text() == full_log.read_text()

    def test_serve_resume_truncates_replayed_log_lines(self, trace_path, tmp_path):
        # Regression: decisions between the last checkpoint and an interrupt
        # are reprocessed on resume; their already-flushed log lines must be
        # truncated, not duplicated.
        checkpoint = tmp_path / "ck.json"
        log = tmp_path / "log.jsonl"
        code, _ = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "doubling",
             "--seed", "5", "--checkpoint", str(checkpoint),
             "--max-arrivals", "40", "--log", str(log)]
        )
        assert code == 0
        # Simulate a crash window: extra lines flushed after the checkpoint.
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"event": "accept", "id": 9999}\n')
        code, _ = run_cli(
            ["serve", "--trace", str(trace_path), "--resume",
             "--checkpoint", str(checkpoint), "--log", str(log)]
        )
        assert code == 0
        full_log = tmp_path / "full.jsonl"
        code, _ = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "doubling",
             "--seed", "5", "--log", str(full_log)]
        )
        assert code == 0
        assert log.read_text() == full_log.read_text()

    @pytest.mark.parametrize(
        "listen", [[], ["--listen", "127.0.0.1:0"]], ids=["replay", "listen"]
    )
    def test_serve_rejects_negative_seed(self, trace_path, listen):
        code, output = run_cli(
            ["serve", "--trace", str(trace_path), "--algorithm", "randomized",
             "--seed", "-1", *listen]
        )
        assert code == 2
        assert "error: --seed must be >= 0, got -1" in output

    def test_serve_resume_requires_checkpoint(self, trace_path):
        code, output = run_cli(["serve", "--trace", str(trace_path), "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint" in output

    def test_serve_checkpoint_every_requires_checkpoint(self, trace_path):
        code, output = run_cli(
            ["serve", "--trace", str(trace_path), "--checkpoint-every", "50"]
        )
        assert code == 2
        assert "--checkpoint-every requires --checkpoint" in output

    def test_serve_resume_dispatches_on_checkpoint_kind(self, tmp_path):
        # Regression: a sharded checkpoint must resume as a shard pool even when
        # --shards is not repeated (the checkpoint is self-describing).
        from repro.scenarios import record_trace
        from repro.workloads import adversarial_mix_workload

        trace = record_trace(
            adversarial_mix_workload(num_edges=8, capacity=2, random_state=3),
            tmp_path / "mix.jsonl",
        )
        checkpoint = tmp_path / "ck.json"
        code, _ = run_cli(
            ["serve", "--trace", str(trace), "--shards", "3", "--algorithm", "doubling",
             "--checkpoint", str(checkpoint), "--max-arrivals", "30"]
        )
        assert code == 0
        code, output = run_cli(
            ["serve", "--trace", str(trace), "--resume", "--checkpoint", str(checkpoint)]
        )
        assert code == 0
        assert '"num_shards": 3' in output

    @pytest.mark.parametrize(
        "resume_flags, in_process",
        [([], True), (["--workers", "2"], False)],
        ids=["flagless-in-process", "workers-in-processes"],
    )
    def test_serve_resume_transport_comes_from_flags(
        self, tmp_path, monkeypatch, resume_flags, in_process
    ):
        # A checkpoint does not record its transport: a --workers 2 checkpoint
        # resumes in worker processes only when --workers 2 is given again.
        from repro.engine.shards import INLINE, ProcessShardPool
        from repro.scenarios import record_trace
        from repro.workloads import adversarial_mix_workload

        trace = record_trace(
            adversarial_mix_workload(num_edges=8, capacity=2, random_state=3),
            tmp_path / "mix.jsonl",
        )
        checkpoint = tmp_path / "ck.json"
        code, _ = run_cli(
            ["serve", "--trace", str(trace), "--workers", "2", "--algorithm", "fractional",
             "--checkpoint", str(checkpoint), "--max-arrivals", "30"]
        )
        assert code == 0
        transports = []
        restore = ProcessShardPool.restore.__func__

        def spy(cls, document, **kwargs):
            pool = restore(cls, document, **kwargs)
            transports.append(pool.start_method)
            return pool

        monkeypatch.setattr(ProcessShardPool, "restore", classmethod(spy))
        code, output = run_cli(
            ["serve", "--trace", str(trace), "--resume", "--checkpoint", str(checkpoint)]
            + resume_flags
        )
        assert code == 0
        assert '"num_shards": 2' in output
        assert len(transports) == 1
        assert (transports[0] == INLINE) == in_process

    @pytest.mark.parametrize(
        "resume_flags, message",
        [
            (["--shards", "3"],
             "resume with --shards 2 (omitting --shards resumes its 2 shards in this process)"),
            (["--workers", "3"],
             "resume with --workers 2 (omitting --workers resumes its 2 shards in this process)"),
            (["--shards", "3", "--workers", "3"],
             "resume with --shards 2 --workers 2 (omitting --shards and --workers resumes "
             "its 2 shards in this process)"),
        ],
        ids=["shards", "workers", "both"],
    )
    def test_serve_resume_shard_count_mismatch_names_the_flags(
        self, tmp_path, resume_flags, message
    ):
        from repro.scenarios import record_trace
        from repro.workloads import adversarial_mix_workload

        trace = record_trace(
            adversarial_mix_workload(num_edges=8, capacity=2, random_state=3),
            tmp_path / "mix.jsonl",
        )
        checkpoint = tmp_path / "ck.json"
        code, _ = run_cli(
            ["serve", "--trace", str(trace), "--shards", "2", "--algorithm", "fractional",
             "--checkpoint", str(checkpoint), "--max-arrivals", "30"]
        )
        assert code == 0
        code, output = run_cli(
            ["serve", "--trace", str(trace), "--resume", "--checkpoint", str(checkpoint)]
            + resume_flags
        )
        assert code == 2
        assert f"error: checkpoint holds 2 shards; {message}" in output

    def test_serve_sharded_plain_string_edges_single_namespace(self, trace_path):
        # Non-namespaced edge ids all share one namespace: sharding degrades
        # to one live shard instead of rejecting multi-edge requests.
        code, output = run_cli(
            ["serve", "--trace", str(trace_path), "--shards", "4",
             "--algorithm", "fractional"]
        )
        assert code == 0
        assert "processed 80 arrivals" in output

    def test_serve_sweep_streaming_flag_parses(self):
        args = build_parser().parse_args(["sweep", "--streaming"])
        assert args.streaming


class TestBenchCommand:
    def test_bench_without_baseline_passes(self, tmp_path):
        code, output = run_cli(
            ["bench", "--quick", "--requests", "200", "--scaling-requests", "400",
             "--stream-requests", "400", "--service-requests", "100",
             "--baseline", str(tmp_path / "missing.json")]
        )
        assert code == 0
        assert "weight_update[python]" in output
        assert "weight_update[numpy]" in output
        assert "scaling_10k[python]" in output
        assert "scaling_10k[numpy]" in output
        assert "sweep_small[python]" in output
        assert "sweep_small[numpy]" in output
        assert "service_loadtest[numpy]" in output
        assert "benchmark gate passed" in output

    def test_bench_write_then_gate_roundtrip(self, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        code, output = run_cli(
            ["bench", "--quick", "--requests", "200", "--scaling-requests", "400",
             "--stream-requests", "400", "--service-requests", "100",
             "--baseline", str(baseline), "--write-baseline"]
        )
        assert code == 0
        assert baseline.exists()
        payload = json.loads(baseline.read_text())
        assert set(payload["benchmarks"]) == {
            "weight_update[python]", "weight_update[numpy]",
            "scaling_10k[python]", "scaling_10k[numpy]",
            "scaling_10k_scalar[python]", "scaling_10k_scalar[numpy]",
            "sweep_small[python]", "sweep_small[numpy]",
            "stream_resume[python]", "stream_resume[numpy]",
            "service_loadtest[numpy]",
        }
        # Inflate the stored seconds so scheduler noise on a loaded machine
        # cannot trip the 2x gate; this test checks the roundtrip wiring, the
        # regression branch is covered by test_bench_fails_on_regression.
        payload["benchmarks"] = {k: v * 10 for k, v in payload["benchmarks"].items()}
        baseline.write_text(json.dumps(payload))
        code, output = run_cli(
            ["bench", "--quick", "--requests", "200", "--scaling-requests", "400",
             "--stream-requests", "400", "--service-requests", "100",
             "--baseline", str(baseline)]
        )
        assert code == 0
        assert "benchmark gate passed" in output

    def test_bench_fails_on_regression(self, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        # A baseline claiming the benchmarks once ran in a nanosecond forces
        # the >2x regression branch deterministically.
        baseline.write_text(json.dumps({
            "schema": 1,
            "benchmarks": {
                "weight_update[python]": 1e-9,
                "weight_update[numpy]": 1e-9,
            },
        }))
        code, output = run_cli(
            ["bench", "--quick", "--requests", "200", "--scaling-requests", "400",
             "--stream-requests", "400", "--service-requests", "100",
             "--baseline", str(baseline)]
        )
        assert code == 1
        assert "FAIL" in output
