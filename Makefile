# Local entry points mirroring what CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-json typecheck gate-draws reach bench bench-pairs bench-gate bench-smoke chaos chaos-crash check

test:
	$(PYTHON) -m pytest -x -q

# The framework linter (tools/lint.py) over the package and the dev tools
# that import it, every rule; lint-json is the report CI consumes.
LINTED := src/repro tools/lint.py tools/typecheck.py tools/ratchet.py
lint:
	$(PYTHON) tools/lint.py $(LINTED)

lint-json:
	$(PYTHON) tools/lint.py $(LINTED) --format json

# The pre-execution gate (contexts + types + cost) over every shipped
# example plan, info notes included; exits 1 on any error-severity
# finding.
typecheck:
	$(PYTHON) tools/typecheck.py examples

# The rule-arm tally over N seeded composed plans, each run through
# Wrangler.preflight(): the table docs/ANALYSIS.md carries (N=500, ~30 s).
N ?= 500
gate-draws:
	$(PYTHON) tools/gate_draws.py --draws $(N)

# Function-level reach of src/repro: the examples, every benchmarks/
# bench_*.py and each bench/ workload's set-up plus 3 ops, traced in one
# process; prints the unreached share and the unreached lines per module.
# Not part of `check` — it reports, it does not gate (a few minutes).
reach:
	$(PYTHON) tools/reach.py

# The contract benchmark (BENCHMARK.json): one workload, untraced —
# `make bench WORKLOAD=cold_documents` for the extraction front end.
# Not part of `check` — it reports numbers, it does not gate.
WORKLOAD ?= cold_structured
bench:
	python3 bench/run.py --workload $(WORKLOAD) --trace 0

# A performance claim, measured: PAIRS alternating gate runs of REF (the
# parent, checked out into a temporary git worktree) and this working
# tree, one run at a time, first side flipped every pair; prints each
# side's median and quartiles per end-to-end metric and the change's
# win count.  `make bench-pairs WORKLOAD=refresh_durable SEED=7`.
SEED ?= 2016
PAIRS ?= 10
REF ?= HEAD
bench-pairs:
	python3 tools/bench_pairs.py --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS) --ref $(REF)

# The perf ratchet (tools/ratchet.py): copy the committed BENCH_*
# baselines aside (so the fresh run cannot overwrite what it is compared
# against), re-run the ratcheted benchmarks (ER scale, incremental
# ingestion, the type-inference load path), and fail on any
# lower-is-better metric regressing past the tolerance or missing from
# its fresh record.  The live gate runs at 50% rather than the tool's
# 15% default: wall-clock minima on a shared runner still swing ~30%
# run-to-run even best-of-3, while a real algorithmic regression
# (losing blocking, an accidental n² stage) is a multi-x blow-up that
# 50% still catches.  The strict 15% contract is pinned
# machine-independently by tests/analysis/test_cost_ratchet.py over the
# committed fixture pair.  --check-baselines fails the gate on any
# committed baseline no bench_*.py can regenerate.  REP015 keeps every
# benchmark on the shared telemetry helpers the ratchet feeds from.
bench-gate:
	rm -rf benchmarks/.ratchet
	mkdir -p benchmarks/.ratchet
	cp benchmarks/results/BENCH_*.json benchmarks/.ratchet/
	$(PYTHON) -m pytest benchmarks/bench_er_scale.py benchmarks/bench_e14_velocity.py benchmarks/bench_type_inference.py -q -p no:cacheprovider
	$(PYTHON) tools/ratchet.py --baseline benchmarks/.ratchet --fresh benchmarks/results --tolerance 0.5 --check-baselines benchmarks
	$(PYTHON) tools/lint.py benchmarks --select REP015

# The paper-claim benchmarks end to end (~30 s), each asserting its
# claim's shape, then schema-check three of their telemetry files:
# catches drift between the benchmarks and the repro.obs schema.  E6
# also asserts that relevance and duplicate feedback which move nothing
# are cut off after at most three recomputed nodes.  Every result table
# without a timing column must then be rewritten byte for byte (E7a
# carries seconds; E6 and E10 print theirs and keep them in their
# telemetry files; E11-resilience is `make chaos`'s, E14 `make
# bench-gate`'s).
DETERMINISTIC_TABLES := E1-automation E2-user-context E3-extraction E4-evidence \
	E5-payg E6-incremental E7b-approximation E7c-access-bounded \
	E8-source-selection E9-fusion E10-repair E11-kbc E12-autonomic E13-ablation
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e1_automation.py benchmarks/bench_e2_user_context.py benchmarks/bench_e3_extraction.py benchmarks/bench_e4_evidence.py benchmarks/bench_e5_payg.py benchmarks/bench_e6_incremental.py benchmarks/bench_e7_scale.py benchmarks/bench_e8_source_selection.py benchmarks/bench_e9_fusion.py benchmarks/bench_e10_repair.py benchmarks/bench_e11_kbc.py benchmarks/bench_e12_autonomic.py benchmarks/bench_e13_ablation.py -q -p no:cacheprovider
	$(PYTHON) -m repro.obs.report benchmarks/results/E10-repair.telemetry.json --validate-only
	$(PYTHON) -m repro.obs.report benchmarks/results/E6-incremental.telemetry.json --validate-only
	$(PYTHON) -m repro.obs.report benchmarks/results/E9-fusion.telemetry.json --validate-only
	git diff --exit-code $(DETERMINISTIC_TABLES:%=benchmarks/results/%.txt)

# The chaos harness end to end: the resilience unit suite (the access
# guard, breakers, deadlines, quorum) and the chaos e2e test, the way
# chaos-crash runs tests/ingest; then the resilience benchmark (seeded
# fault injection through a full Wrangler.run), its telemetry
# schema-checked, then REP013 over sources and tests — nothing outside
# repro.resilience may sleep on the real clock.
chaos:
	$(PYTHON) -m pytest tests/resilience tests/core/test_degradation.py -q -p no:cacheprovider
	$(PYTHON) -m pytest benchmarks/bench_e11_resilience.py -q -p no:cacheprovider
	$(PYTHON) -m repro.obs.report benchmarks/results/E11-resilience.telemetry.json --validate-only
	$(PYTHON) tools/lint.py src/repro tests benchmarks --select REP013

# Crash chaos: the kill-at-every-checkpoint matrix (every commit point,
# both sides of the journal write, byte-identical recovery with exact
# ledger accounting).  REP016 — every durability-relevant write outside
# repro.io/repro.ingest goes through atomic_write_bytes — runs with every
# other rule in `make lint` and in the tier-1 self-hosting lint test.
chaos-crash:
	$(PYTHON) -m pytest tests/ingest -q -p no:cacheprovider

check: test lint typecheck bench-smoke bench-gate chaos chaos-crash
