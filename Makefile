# Convenience wrappers around dune; CI runs the same three gates.

.PHONY: all build lint analyze test check storm soak obs scale storm-scale spread cluster bench perf loc clean

all: lint analyze build test

build:
	dune build

lint:
	dune build @lint

# AST-grade passes (shared-mutable-state inventory, effect signatures,
# AST-precise partiality) over lib/bin/bench/tool, ratcheted by
# analyze.baseline; writes the machine-readable shared-state report CI
# uploads.  `sfg analyze` prints the same inventory as a table.
analyze:
	dune build @analyze
	dune exec tool/analyze/sf_analyze.exe -- --baseline analyze.baseline \
	  --report ANALYZE_report.json lib bin bench tool

test:
	dune runtest

# A fully audited simulation: every S&F action checked against the paper's
# invariants (M1 degree bounds, edge conservation, the dL duplication rule),
# with periodic full scans.  Nonzero exit on any violation.
check: build
	dune exec bin/sfg.exe -- check --n 1000 --rounds 50 --loss 0.0
	dune exec bin/sfg.exe -- check --n 1000 --rounds 50 --loss 0.2

# Fault-matrix smoke: each storm drives a scenario through the sequential
# simulator under the strict invariant audit, then replays it on a real
# UDP loopback cluster and re-checks every view (M1 bounds, parity,
# soundness).  Nonzero exit on any violation.  Distinct seeds and ports so
# the runs are independent.
storm: build
	dune exec bin/sfg.exe -- storm --seed 11 --port 48100
	dune exec bin/sfg.exe -- storm --seed 23 --rounds 50 --port 48200 \
	  --scenario "partition@5-20:3;crash@25-32:0-5"
	dune exec bin/sfg.exe -- storm --seed 37 --rounds 60 --port 48300 \
	  --scenario "ge:0.25:6"

# Resilience soak (budget: ~1 minute): a chaos scenario — bursty loss, a
# partition, a crash wave — under the full self-healing policy, first on
# the audited simulator (estimator accuracy checked against the
# injector's ground truth) and then on a UDP loopback cluster with
# crash/rebind.  The RSOAK bench section re-runs the simulator leg and
# writes BENCH_resil.json, the artifact CI uploads.  Nonzero exit on any
# failed verdict.
soak: build
	dune exec bin/sfg.exe -- soak --port 48400
	dune exec bench/main.exe -- RSOAK

# Observability smoke: a metrics snapshot and a trace dump from the
# instrumented simulator, plus the determinism property the tracer
# guarantees — equal seeds dump byte-identical JSONL.
obs: build
	dune exec bin/sfg.exe -- top --once --n 200 --rounds 50
	dune exec bin/sfg.exe -- trace --n 100 --rounds 5 -o /tmp/sfg-trace-a.jsonl
	dune exec bin/sfg.exe -- trace --n 100 --rounds 5 -o /tmp/sfg-trace-b.jsonl
	cmp /tmp/sfg-trace-a.jsonl /tmp/sfg-trace-b.jsonl
	rm -f /tmp/sfg-trace-a.jsonl /tmp/sfg-trace-b.jsonl

# Scale smoke (budget: well under a minute): the sharded flat-state
# engine at n = 10^4 under the strict round-granular audit and the
# domain-count determinism cross-check, the same cross-check on a
# 10^6-node world (~8 s, ~1.1 GB peak RSS on a 2-vCPU host), then the
# SCALE10 bench section which writes BENCH_scale.json.  The full
# million-node ladder is `dune exec bench/main.exe -- SCALE`.
scale: build
	dune exec bin/sfg.exe -- scale --n 10000 --rounds 30 --loss 0.05 \
	  --audit --verify-domains 2
	dune exec bin/sfg.exe -- scale --n 1000000 --rounds 3 --verify-domains 2
	dune exec bench/main.exe -- SCALE10

# Chaos-at-scale gate (budget: well under a minute): the sharded engine
# at n = 10^4 under a mixed GE + partition + crash scenario with churn
# and the adaptive resilience stack, audited strictly and cross-checked
# for domain-count determinism, then the SSTORM bench section which
# writes BENCH_sstorm.json.  Exit codes follow storm/soak: 1 on an audit
# or determinism failure or a failed verdict, 2 when a declared fault
# class never engaged.
storm-scale: build
	dune exec bin/sfg.exe -- scale --n 10000 --rounds 30 \
	  --scenario "ge:0.2:8;partition@5-12:2;crash@15-20:0-999" \
	  --churn 0.01 --headroom 1024 --resilience --audit --verify-domains 2
	dune exec bench/main.exe -- SSTORM

# Dissemination gate (budget: well under a minute): a push-pull rumor
# spread over live views at n = 10^4 under bursty loss with the
# domain-count determinism cross-check, then the SPREAD10 bench section
# — the strategy x loss grid at n = 10^3, 10^4 with the coverage,
# log2-envelope and direct-beats-push checks — which writes
# BENCH_spread.json.  The full ladder to n = 10^6 is
# `dune exec bench/main.exe -- SPREAD`.
spread: build
	dune exec bin/sfg.exe -- spread --strategy push-pull --n 10000 \
	  --scenario "ge:0.2:8" --verify-domains
	dune exec bench/main.exe -- SPREAD10

# Multi-process cluster gate (budget: well under a minute): fork 8 real
# node-host processes (256 UDP sockets) under bursty loss with a crash
# window realized as a genuine kill -9 plus controller respawn, once all-v2
# and once with alternating v1/v2 hosts (per-peer downgrade), gating on
# M1 bounds, parity and weak connectivity of the merged post-heal views;
# then the CLUSTER bench section re-runs both legs and writes
# BENCH_cluster.json (datagrams/s, batch-fill, per-action p50/p99).
# Exit codes follow storm/soak: 1 on a failed verdict, 2 when a declared
# fault class left no process-level evidence.
cluster: build
	dune exec bin/sfg.exe -- cluster --quiet --port 47200
	dune exec bin/sfg.exe -- cluster --quiet --codec mixed --port 47600
	dune exec bench/main.exe -- CLUSTER

bench:
	dune exec bench/main.exe

# The repository benchmark (BENCHMARK.json), one 15 s run of each
# workload: perfbench/run.py builds perfbench/bench.exe, runs the
# workload in a fresh process and prints its report and JSON result
# line.  Takes a few minutes.  No CI step runs it: a shared 2-vCPU runner
# is too noisy to gate on.
PERF_WORKLOADS = membership-1m chaos-audit-10k spread-1m cluster-sat seq-audit-1k

perf:
	for w in $(PERF_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 15 || exit 1; \
	done

# Net lines of OCaml (.ml + .mli) per source directory, the figures a
# change that removes code reports before and after.
LOC_DIRS = lib bin bench tool test

loc:
	@for d in $(LOC_DIRS); do \
	  printf '%-6s %6d\n' $$d \
	    $$(find $$d \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l); \
	done

clean:
	dune clean
