PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-invariants typecheck examples-smoke sweep-smoke serve-smoke shard-smoke service-smoke leak-smoke bench-smoke perfbench-smoke bench-baseline bench-suite profile profile-scaling profile-service profile-replay profile-memory profile-startup ci

test:
	$(PYTHON) -m pytest -x -q

# Ruff (configured in pyproject.toml). Skips with a notice when ruff is not
# installed locally; CI always installs and runs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

# The repo's own AST invariant checker (rules RPR001..RPR006): frozenset
# iteration order, seeded randomness, registry mediation, export/restore
# symmetry, schema-version discipline, one-reply-per-command.  Pure stdlib,
# so it always runs; fails on any violation or unused suppression.
lint-invariants:
	$(PYTHON) -m repro lint

# Mypy over the typed surface: the run-spec facade, the core protocols, the
# instance layer and the engine's registry/config modules (configured in
# pyproject.toml).  Skips with a notice when mypy is not installed locally;
# CI always installs and runs it.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/api src/repro/core/protocols.py src/repro/instances \
			src/repro/engine/registry.py src/repro/engine/config.py; \
	else \
		echo "mypy not installed; skipping typecheck (pip install mypy)"; \
	fi

# All six examples double as end-to-end smoke tests of the public API (a few
# seconds each).  CI's "Examples smoke" step calls this target, so the two
# cannot drift.
examples-smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scenario_sweep.py
	$(PYTHON) examples/streaming_service.py
	$(PYTHON) examples/adversarial_showdown.py
	$(PYTHON) examples/cdn_replica_placement.py
	$(PYTHON) examples/isp_admission_control.py

# Sweep smoke: the same sweep compiled on one job and streamed through
# sessions on two jobs must write byte-identical --out reports and, apart from
# the "report written to" line, byte-identical stdout (sweep determinism and
# streaming equivalence).
SWEEP_SMOKE_ARGS = --scenarios cheap_expensive,bursty \
	--algorithms fractional,randomized,reject-when-full,keep-expensive --trials 2 --seed 3
sweep-smoke:
	@rm -rf .sweep-smoke && mkdir -p .sweep-smoke
	$(PYTHON) -m repro sweep $(SWEEP_SMOKE_ARGS) --jobs 1 \
		--out .sweep-smoke/compiled.json > .sweep-smoke/compiled.txt
	$(PYTHON) -m repro sweep $(SWEEP_SMOKE_ARGS) --streaming --jobs 2 \
		--out .sweep-smoke/streaming.json > .sweep-smoke/streaming.txt
	cmp .sweep-smoke/compiled.json .sweep-smoke/streaming.json
	grep -v 'report written to' .sweep-smoke/compiled.txt > .sweep-smoke/compiled.report
	grep -v 'report written to' .sweep-smoke/streaming.txt > .sweep-smoke/streaming.report
	cmp .sweep-smoke/compiled.report .sweep-smoke/streaming.report
	@rm -rf .sweep-smoke
	@echo "sweep smoke passed: compiled --jobs 1 and streaming --jobs 2 reports identical"

# Streaming-service smoke: record a trace, serve half of it with a checkpoint,
# resume in a fresh process, and verify the combined decision log is byte-for-
# byte identical to an uninterrupted run.
serve-smoke:
	@rm -rf .serve-smoke && mkdir -p .serve-smoke
	$(PYTHON) -c "from repro.scenarios.trace import record_trace; \
	from repro.workloads.admission_traffic import bursty_workload; \
	record_trace(bursty_workload(num_edges=16, num_requests=200, capacity=3, random_state=7), '.serve-smoke/t.jsonl')"
	$(PYTHON) -m repro serve --trace .serve-smoke/t.jsonl --algorithm doubling --seed 5 \
		--checkpoint .serve-smoke/ck.json --checkpoint-every 50 --max-arrivals 100 \
		--log .serve-smoke/part.jsonl
	$(PYTHON) -m repro serve --trace .serve-smoke/t.jsonl --resume \
		--checkpoint .serve-smoke/ck.json --log .serve-smoke/part.jsonl
	$(PYTHON) -m repro serve --trace .serve-smoke/t.jsonl --algorithm doubling --seed 5 \
		--log .serve-smoke/full.jsonl
	cmp .serve-smoke/part.jsonl .serve-smoke/full.jsonl
	@rm -rf .serve-smoke
	@echo "serve smoke passed: resumed decision log identical to uninterrupted run"

# Shard-pool smoke across process boundaries and transports.  Serve half a
# namespaced trace in 2 worker processes with a checkpoint and resume it in a
# fresh process with in-process shards (no --workers); then checkpoint
# in-process shards (--shards 2) and resume them in worker processes
# (--workers 2).  Both combined decision logs must be byte-for-byte identical
# to an uninterrupted 2-worker run.  Finishes by asserting no shared-memory
# segments leaked.
shard-smoke:
	@rm -rf .shard-smoke && mkdir -p .shard-smoke
	$(PYTHON) -c "from repro.scenarios.trace import record_trace; \
	from repro.workloads.admission_traffic import adversarial_mix_workload; \
	record_trace(adversarial_mix_workload(num_edges=8, capacity=2, random_state=7), '.shard-smoke/t.jsonl')"
	$(PYTHON) -m repro serve --trace .shard-smoke/t.jsonl --algorithm fractional --seed 5 \
		--workers 2 --log .shard-smoke/full.jsonl
	$(PYTHON) -m repro serve --trace .shard-smoke/t.jsonl --algorithm fractional --seed 5 \
		--workers 2 --checkpoint .shard-smoke/ck.json --checkpoint-every 20 --max-arrivals 35 \
		--log .shard-smoke/part.jsonl
	$(PYTHON) -m repro serve --trace .shard-smoke/t.jsonl --resume \
		--checkpoint .shard-smoke/ck.json --log .shard-smoke/part.jsonl
	cmp .shard-smoke/part.jsonl .shard-smoke/full.jsonl
	$(PYTHON) -m repro serve --trace .shard-smoke/t.jsonl --algorithm fractional --seed 5 \
		--shards 2 --checkpoint .shard-smoke/ck-inline.json --checkpoint-every 20 \
		--max-arrivals 35 --log .shard-smoke/cross.jsonl
	$(PYTHON) -m repro serve --trace .shard-smoke/t.jsonl --resume --workers 2 \
		--checkpoint .shard-smoke/ck-inline.json --log .shard-smoke/cross.jsonl
	cmp .shard-smoke/cross.jsonl .shard-smoke/full.jsonl
	$(PYTHON) -c "import glob; leaks = glob.glob('/dev/shm/psm_*'); \
	assert not leaks, 'leaked shared memory segments: %r' % leaks"
	@rm -rf .shard-smoke
	@echo "shard smoke passed: resumes across both transports identical to uninterrupted run"

# Network admission-service smoke: start `repro serve --listen` as a real
# subprocess (2-worker pool), drive every arrival over TCP through the
# AdmissionClient SDK, SIGTERM it mid-stream, resume in a fresh process, and
# verify the combined decision log is byte-identical to an uninterrupted
# network run — then assert no shared-memory segments or processes leaked.
service-smoke:
	$(PYTHON) -m repro.service.smoke

# Resource-leak smoke: the service, shard, streaming, CLI and start-up import
# tests in Python's development mode with every ResourceWarning (an unclosed
# file, socket or pipe, a child never waited for) raised as an error.  A
# warning raised in a finalizer reaches pytest as
# PytestUnraisableExceptionWarning, so that one is an error too.  Its filter
# goes to pytest's -W: the interpreter parses its own -W options before
# site-packages is importable and drops any category outside the builtins.
leak-smoke:
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest \
		-W error::pytest.PytestUnraisableExceptionWarning -q -p no:cacheprovider \
		tests/test_service.py tests/test_shards.py tests/test_streaming.py tests/test_cli.py \
		tests/test_startup_imports.py

# The end-to-end benchmark's own tests (perfbench/, about 30 s).  They also
# catch a library change that renames an entry point the benchmark traces.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q

# Reproduce the CI pipeline locally: lint, invariant lint, typecheck, tests,
# examples smoke, sweep smoke, serve smoke, shard smoke, service smoke, leak
# smoke, perfbench tests, bench gate.
ci: lint lint-invariants typecheck test examples-smoke sweep-smoke serve-smoke shard-smoke service-smoke leak-smoke perfbench-smoke bench-smoke

# Weight-update + 10k-request scaling benchmarks per backend; fails on a >2x
# regression against benchmarks/baseline_bench.json.
bench-smoke:
	$(PYTHON) -m repro bench --quick

# cProfile the E3 experiment (the heaviest end-to-end pipeline) and dump the
# top-20 cumulative entries, so perf work starts from data instead of guesses.
profile:
	$(PYTHON) -m cProfile -o .profile_e3.pstats -m repro run E3 --quick --trials 1
	$(PYTHON) -c "import pstats; pstats.Stats('.profile_e3.pstats').sort_stats('cumulative').print_stats(20)"

# cProfile the scaling_10k bench (the whole-trace executor's hot loop) on the
# numpy backend and dump the top-25 cumulative entries.  This is the profile
# that motivated the vectorized executor: on the saturated canonical workload
# the time sits in the per-augmentation restore ufuncs, not in dispatch.
profile-scaling:
	$(PYTHON) -c "import cProfile; from repro.engine.benchmarking import run_scaling_bench; cProfile.run(\"print(run_scaling_bench('numpy'))\", '.profile_scaling.pstats')"
	$(PYTHON) -c "import pstats; pstats.Stats('.profile_scaling.pstats').sort_stats('cumulative').print_stats(25)"

# cProfile `repro serve --listen` on perfbench's service_window workload
# (seed 91, 12,000 single-arrival submits over loopback TCP, driven by the
# benchmark's own closed-window client), then drain and SIGTERM it and dump
# the server's top-25 entries by self time (writes .profile_service.pstats).
# This is the profile that found the dispatcher's per-frame queue waits and
# socket writes; the next service optimization starts from it too.
profile-service:
	$(PYTHON) benchmarks/profile_service.py --seed 91

# cProfile one record-free numpy whole-trace replay of perfbench's
# replay_hotspot trace (seed 7, 60,000 arrivals) and dump the top-25 entries
# by self time (writes .profile_replay.pstats).  Since the room-split block
# kernel the restore kernel is the replay's largest stage; the next kernel
# optimization starts from this profile.
profile-replay:
	$(PYTHON) benchmarks/profile_replay.py --seed 7

# Traced memory growth and GC-tracked objects per arrival of the session
# `repro serve` builds (numpy, retain_log=False), fed perfbench's inputs
# (seed 101): service_window's randomized session in batches of 8 at 12,000
# and 48,000 arrivals, and session_doubling's doubling session in batches of
# 64; then the state a numpy fractional whole-trace replay of replay_hotspot
# (60,000 arrivals) keeps.  One line each, with the rejection or fractional
# cost (~15 s).  ROADMAP item 7's bounded-state target is measured with it.
profile-memory:
	$(PYTHON) benchmarks/profile_memory.py --workload service_window --seed 101
	$(PYTHON) benchmarks/profile_memory.py --workload service_window --scale 4 --seed 101
	$(PYTHON) benchmarks/profile_memory.py --workload session_doubling --seed 101
	$(PYTHON) benchmarks/profile_memory.py --workload replay_hotspot --seed 101

# The import log of one `repro serve --listen` start-up (python -X importtime,
# on the serve smoke's trace, randomized on numpy): the modules it loaded and
# the top-25 entries by cumulative time.  Imports are a start-up's largest
# stage; tests/test_startup_imports.py keeps scipy, networkx and the
# experiment stack off this closure, and the next start-up cut starts here.
profile-startup:
	$(PYTHON) benchmarks/profile_startup.py

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	$(PYTHON) -m repro bench --quick --write-baseline

# The full pytest-benchmark suite (also writes BENCH_engine.json).
bench-suite:
	$(PYTHON) -m pytest benchmarks -q
