# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test format-compat lint analyze bench bench-fast bench-json bench-persist bench-cluster bench-qps bench-flight bench-analyze bench-repl bench-pairs stats trace examples clean

# Output path for the machine-readable experiment record; override with
# `make bench-json BENCH_JSON=BENCH_1.json` to regenerate earlier runs.
BENCH_JSON ?= BENCH_3.json

# Schema/script pair driven by `make stats` / `make trace`; override to
# inspect your own workload.
OBS_SCHEMA ?= examples/schemas/milestones.cactis
OBS_SCRIPT ?= examples/schemas/project.script
TRACE_JSON ?= trace.json

all: build

build:
	dune build @all

# Everything CI needs: full build, full test suite (which includes the
# schema-versioning suite and its on-disk format-compat fixture check),
# an explicit format-compat pass, and a fast pass over every experiment
# to catch harness regressions.  The fast pass fails if any experiment's
# gates table holds a FAIL row (E16's >= 2x block reads, E18's
# bit-identical counters, E19's sweep bound, E20's digests, ...).
check:
	dune build @all
	dune runtest --force
	$(MAKE) format-compat
	dune exec bench/main.exe -- --fast

test:
	dune runtest --force

# On-disk format compatibility: recover the committed legacy CWAL2
# fixture under the current CWAL3 reader and compare against the
# recorded recovery output (test/fixtures/cwal2/expected.json).
format-compat:
	dune exec test/test_schema_versioning.exe -- test "format compat"

# Static schema analysis over every shipped .cactis schema plus the
# built-in application schemas.  Fails on error-severity findings only;
# add `LINT_FLAGS=--strict` to fail on warnings too.
LINT_FLAGS ?=
lint:
	dune exec bin/cactis_cli.exe -- lint $(LINT_FLAGS) --apps \
	  $(shell find examples lib -name '*.cactis')

# Abstract interpretation over the shipped example schemas: run the
# cost/convergence analyzer and compare its JSON against the committed
# goldens in test/golden/analyze/ (fails on drift — regenerate the
# golden on an intentional change and commit both).
analyze:
	@set -e; \
	for s in examples/schemas/*.cactis; do \
	  name=$$(basename $$s .cactis); \
	  dune exec bin/cactis_cli.exe -- analyze $$s --json \
	    | diff -u test/golden/analyze/$$name.json - \
	    || { echo "analyze golden drift for $$s"; exit 1; }; \
	  echo "analyze golden ok: $$s"; \
	done

bench:
	dune exec bench/main.exe

bench-fast:
	dune exec bench/main.exe -- --fast

# Full experiment run with machine-readable output in $(BENCH_JSON).
bench-json:
	dune exec bench/main.exe -- --json $(BENCH_JSON)

# Just the persistence experiments (binary snapshots + write-ahead log).
bench-persist:
	dune exec bench/main.exe -- E14

# Clustering shoot-out on a real block file (E16): per-strategy block
# reads, buffer hit rate and wall time, plus the incremental-maintenance
# disruption table.  The full run records its results in
# $(CLUSTER_JSON).
CLUSTER_JSON ?= BENCH_4.json
bench-cluster:
	dune exec bench/main.exe -- E16 --json $(CLUSTER_JSON)

# Multi-client QPS over TCP (E17): 4 client processes against the
# domain-parallel server at 1/2/4 reader domains.  The full run records
# $(QPS_JSON) (the >=2x scaling gate arms itself only on machines with
# >=4 cores).
QPS_JSON ?= BENCH_5.json
bench-qps:
	dune exec bench/main.exe -- E17 --json $(QPS_JSON)

# Flight-recorder overhead (E18): the E13 incremental workload, and the
# same loop on a plan larger than the buffer pool, with the ring
# recording vs switched off.  Counters must be bit-identical; the full
# run also gates cpu overhead at 5% (E13 plan) and 10% (larger plan); a
# --fast run is too short to judge and reports those gates skipped.
FLIGHT_JSON ?= BENCH_6.json
bench-flight:
	dune exec bench/main.exe -- E18 --json $(FLIGHT_JSON)

# Cost/convergence analysis + bounded fixed-point evaluation (E19): the
# per-attribute cost tables, the instance-count invariance measurement,
# and flowan While-loop CFGs run to a proven fixed point with the sweep
# count gated by the static iteration bound.  The full run records
# $(ANALYZE_JSON).
ANALYZE_JSON ?= BENCH_7.json
bench-analyze:
	dune exec bench/main.exe -- E19 --json $(ANALYZE_JSON)

# WAL-shipping replication (E20): a writer ships its commit log to two
# live followers plus a late follower that measures snapshot-bootstrap
# catch-up; the gate requires byte-identical snapshot digests, a clean
# integrity audit and zero sequence gaps on every replica.  The full
# run records $(REPL_JSON).
REPL_JSON ?= BENCH_8.json
bench-repl:
	dune exec bench/main.exe -- E20 --json $(REPL_JSON)

# Paired runs of the benchmark in benchmark/: BASE (a git revision)
# against this working tree on one workload, PAIRS fresh seeds (from
# SEED when given), alternating which side runs first; prints each
# end-to-end metric's quartiles on both sides and the change's wins.
BASE ?= HEAD
WORKLOAD ?= plan_edit
PAIRS ?= 10
SEED ?=
bench-pairs:
	bash tools/bench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# Run $(OBS_SCRIPT) and report counters, latency histograms and the last
# commit's propagation profile (evaluated-at-most-once check included).
stats:
	dune exec bin/cactis_cli.exe -- stats $(OBS_SCHEMA) $(OBS_SCRIPT)

# Run $(OBS_SCRIPT) and export the flight recorder's events (spans,
# transactions, WAL and pager events) as $(TRACE_JSON), loadable in
# Perfetto (https://ui.perfetto.dev) or chrome://tracing.
trace:
	dune exec bin/cactis_cli.exe -- trace $(OBS_SCHEMA) $(OBS_SCRIPT) -o $(TRACE_JSON)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/milestones.exe
	dune exec examples/make_tool.exe
	dune exec examples/flow_analysis.exe
	dune exec examples/versions_demo.exe
	dune exec examples/software_env.exe

clean:
	dune clean
