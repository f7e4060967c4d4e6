.PHONY: install test bench bench-smoke serve-smoke attack-smoke perf-selftest examples reproduce lint coverage clean

install:
	pip install -e '.[dev]' --no-build-isolation

# Matches the tier-1 verify command; PYTHONPATH=src means no editable
# install is needed for any target below.
test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# CI-sized run of the timing benches: tiny synthetic corpora, every
# fast-path == reference equivalence assertion still enforced, but
# speedup thresholds skipped and BENCH_timing.json left untouched
# (toy-scale ratios are meaningless; see bench_lib.SMOKE).
bench-smoke:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 REPRO_BENCH_CORPUS=800 \
		REPRO_BENCH_BASE=2000 python -m pytest \
		benchmarks/test_timing_scoring_engine.py \
		benchmarks/test_timing_batch_scoring.py \
		benchmarks/test_timing_training_engine.py \
		benchmarks/test_timing_measure.py \
		benchmarks/test_timing_lint.py \
		benchmarks/test_timing_serving.py \
		benchmarks/test_timing_snapshot_attach.py \
		benchmarks/test_timing_attack_engine.py -q

# End-to-end smoke of `repro serve` as a real subprocess: trains a
# tiny model, boots the CLI on an ephemeral port, hits every endpoint
# over a socket, and requires a clean SIGTERM shutdown.
serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

# End-to-end smoke of `repro attack` as a real subprocess: trains
# fuzzyPSM + PCFG models on tiny corpora and drives all four attack
# subcommands (enumerate / masks / simulate / crossover).
attack-smoke:
	PYTHONPATH=src python tools/attack_smoke.py

# Toy-scale self-test of the end-to-end benchmark (perfbench/, the
# harness BENCHMARK.json runs): every workload end to end, then one
# planted fault per output check.  It exercises program surface no
# other target does: repro.core.shm.mp_context, the `repro serve`
# banner, the parser.cache.* / meter.batch.* / trie.compile.seconds /
# meter.frozen.build.seconds probes, and FuzzyPSM.train_streaming,
# probability_many, attack_engine and frozen_grammar.
perf-selftest:
	python3 perfbench/selftest.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src python $$script || exit 1; \
	done

# The full paper reproduction with outputs captured at the repo root.
reproduce:
	PYTHONPATH=src python -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# The static-analysis gate: the domain linter always runs — strict
# over src/, relaxed profile over tests/benchmarks/tools/examples —
# and ruff/mypy run when installed (not baked into every container).
lint:
	PYTHONPATH=src python -m repro lint src/repro tests benchmarks tools examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/core; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

# The CI coverage ratchet, runnable locally.  Falls back to the
# dependency-free tracer when the coverage package is not installed.
coverage:
	@if python -c 'import coverage' >/dev/null 2>&1; then \
		PYTHONPATH=src python -m coverage run -m pytest -q && \
		PYTHONPATH=src python -m coverage report; \
	else \
		echo "coverage not installed; using tools/measure_coverage.py"; \
		PYTHONPATH=src python tools/measure_coverage.py; \
	fi

clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info .coverage htmlcov coverage.xml
	rm -f .repro_lint_cache.json lint.sarif
	rm -rf .perfbench
	find . -name __pycache__ -type d -exec rm -rf {} +
