GO ?= go

.PHONY: all build vet test race bench check ci

all: check

build:
	$(GO) build ./...

# staticcheck is optional: run it when the host has it, skip quietly
# when not (the CI image installs it; a bare container need not).
vet: build
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "vet: staticcheck not installed, skipping"; fi

test: vet
	$(GO) test ./...

# The pipeline runs shards on a worker pool; the race detector is the
# check that per-shard state really is private.
race:
	$(GO) test -race ./...

# Micro-benchmarks for the fuzz-and-validate pipeline (E11), the
# execution engines (E12) and the VX64 simulator (E7): refine.Check
# memo on/off, enumeration serial vs sharded, campaign throughput,
# interpreted vs compiled, and ns per simulated instruction.
bench:
	$(GO) test -bench 'BenchmarkRefineCheck|BenchmarkExhaustive|BenchmarkCampaign|BenchmarkExecEngines|BenchmarkSimulator' -benchtime 1x -run '^$$' ./internal/bench/

check: build vet test race

# CI entry point: full vet + test, then the race detector on the
# concurrency-bearing surfaces — the worker-pool packages, the shared
# cross-shard memo, the three-way engine lockstep (interpreter vs
# closures vs bytecode) with the shared program cache and frame pool,
# the bytecode lowering/fold/promotion tests, and the telemetry
# registry's lock-free hot paths — then a quick E12 smoke across all
# three tiers and both worker counts (exits nonzero if any engine
# row's behaviour hash diverges from the interpreted baseline; its
# rows land in the untracked ci-bench/exec.json for the workflow
# artifact, so a CI run leaves the committed BENCH_exec.json alone and
# the tree clean), then the
# §7 tables with E7's simulated run times (about 1.5 s; exits nonzero
# if any program's checksum is a MISMATCH or a SIM ERROR), then the
# quick E13 workload rows (exhaustive, mutate with the reducer, wide8:
# about 15-25 s on 2 CPUs since the compiled engines fast-forward
# provably cycling executions; before that the mutate row did not
# finish in 300 s), and finally a quick campaign that must export a parseable metric
# snapshot carrying the counters the telemetry layer promises —
# including, via the ">0" assertions, proof that tier promotion to
# the bytecode VM actually fired (the legacy campaign: its undef
# resolution drives enough executions per program to trip the
# auto-promotion threshold, where the memoized freeze sweep does
# not). The JSON twin of that snapshot lands in metrics-snapshot.json
# for the workflow artifact.
#
# The poison-analysis guards run after that: tame-lint over the
# freeze-elim corpus (verifier + SSA + dataflow diagnostics must be
# clean), a full -O2 under -verify-each over a CFG with loop-carried
# freezes — asserting the analysis was queried, freeze-elim actually
# deleted something the local operand walk cannot (a freeze behind a
# loop phi), every between-pass checker battery ran, and the failure
# counter is present AND zero ("=0") — and the soundness oracle
# sweeping the whole 1-instruction freeze-dialect space, cross-checking
# every static NeverPoison claim against concrete enumeration (exit 1
# on any violation). The legacy quick campaign also runs under
# -verify-each so the battery covers the legacy dialect too.
#
# The paper's §6 claim then runs as a standing check, ahead of the
# workload and trace gates: the -O2 passes survive exhaustive
# refinement checking of every 2-instruction i2 freeze-dialect function
# (250000 candidates, about 8 s on 2 CPUs), so campaign_refuted_total
# must be exactly 0. The same run must keep the shared memo paying.
# The memo serves targets only and counts one lookup per target input
# served; 0.971 of them hit when this gate was set, so a vector or key
# representation that silently loses hits — even a third of them —
# fails the memo_hits_total/memo_lookups_total>=0.90 floor.
#
# The tame-opt step runs with -time-passes so the span-based per-pass
# timing path (the only per-pass clock) runs in CI too.
ci: vet test
	$(GO) test -race ./internal/passes ./internal/optfuzz
	$(GO) test -race -run 'Memo|Compiled|ProgramShared|ExecTwins|Lowering|Fold|Superblock|TierPromotion' ./internal/refine ./internal/core ./internal/core/bytecode ./internal/bench
	$(GO) test -race -run 'TelemetryRaceStress' ./internal/telemetry
	mkdir -p ci-bench
	$(GO) run ./cmd/tame-bench -exp exec -quick -json ci-bench/exec.json
	$(GO) run ./cmd/tame-bench -exp runtime -quick
	$(GO) run ./cmd/tame-bench -exp workload -quick
	$(GO) run ./cmd/tame-fuzz -validate -verify-each -n 200 -workers 2 -sem legacy -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'campaign_funcs_total,campaign_verified_total,check_checks_total,check_inputs_total,check_set_size,engine_steps_total,engine_execs_bytecode_total>0,engine_promotions_total>0,progcache_hits_total,memo_lookups_total,pool_tasks_total,pass_runs_total,opt_funcs_total,analysis_computes_total,span_wall_ns,verify_each_checks_total>0,verify_each_failures_total=0'
	$(GO) run ./cmd/tame-fuzz -validate -verify-each -n 200 -workers 2 -sem legacy -metrics metrics-snapshot.json
	$(GO) run ./cmd/tame-lint -q internal/passes/testdata/freeze-elim-loop.ll
	$(GO) run ./cmd/tame-opt -sem freeze -verify-each -time-passes -metrics metrics-verify-each.txt internal/passes/testdata/freeze-elim-loop.ll > /dev/null
	$(GO) run ./cmd/tame-metrics -check 'analysis_poison_queries_total>0,passes_freeze_elim_removed_total>0,verify_each_checks_total>0,verify_each_failures_total=0' metrics-verify-each.txt
	$(GO) run ./cmd/tame-fuzz -poison-oracle -instrs 1 -n 0 -sem freeze -workers 2 -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'poison_oracle_funcs_total>0,poison_oracle_claims_total>0,poison_oracle_execs_total>0,poison_oracle_violations_total=0'
	$(GO) run ./cmd/tame-fuzz -validate -sem freeze -instrs 2 -n 250000 -workers 2 -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'campaign_refuted_total=0,memo_hits_total/memo_lookups_total>=0.90'
	$(MAKE) ci-workload
	$(MAKE) ci-trace

# The workload-layer gate, in two halves. Determinism: the same seeded
# mutation campaign (unsound legacy -O2, reducer on) runs at two worker
# counts and cmp enforces byte-identical reduced findings AND a
# byte-identical final corpus; the exhaustive-on-Source path gets the
# same cmp across workers 1 vs 4, proving the Source refactor did not
# perturb the original stream. Liveness: the mutation run's metric
# snapshot must show a populated corpus, novel coverage keys, a
# reducer that actually shrank findings, and executions the compiled
# engines fast-forwarded on a proven state cycle (the legacy mutants'
# undef loops are where that pays). The ci-workload/ dir — both
# findings files, the corpus, and the metric snapshot — is kept for the
# workflow's fuzz-corpus artifact.
.PHONY: ci-workload
ci-workload:
	rm -rf ci-workload && mkdir -p ci-workload
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 2 \
	  -corpus ci-workload/corpus-w2.ll -metrics ci-workload/mutate-metrics.json > ci-workload/mutate-w2.txt || true
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 8 \
	  -corpus ci-workload/corpus-w8.ll > ci-workload/mutate-w8.txt || true
	cmp ci-workload/mutate-w2.txt ci-workload/mutate-w8.txt
	cmp ci-workload/corpus-w2.ll ci-workload/corpus-w8.ll
	$(GO) run ./cmd/tame-metrics -check 'workload_funcs_total>0,workload_epochs_total>0,corpus_size>0,coverage_keys>0,reduce_steps_total>0,reduce_findings_total>0,engine_cycle_cuts_total>0' ci-workload/mutate-metrics.json
	$(GO) run ./cmd/tame-fuzz -validate -n 300 -workers 1 -sem freeze > ci-workload/exhaustive-w1.txt
	$(GO) run ./cmd/tame-fuzz -validate -source exhaustive -n 300 -workers 4 -sem freeze > ci-workload/exhaustive-w4.txt
	cmp ci-workload/exhaustive-w1.txt ci-workload/exhaustive-w4.txt

# The flight-recorder gate: the seeded mutation campaign (the same one
# ci-workload's determinism half runs — it reliably produces findings)
# runs traced with the stall watchdog armed, then tame-trace -assert
# holds the recording to the invariants the trace layer promises:
# shard spans present, exactly one pinned provenance instant per
# finding (instants(finding)==counter(findings) — the pinned region is
# what makes this immune to ring wrap), and zero watchdog stalls; the
# metric twin re-checks the stall count and the event volume from the
# registry side, and that the check-phase spans -trace turns on also
# reach the registry as span_wall_ns histograms. The human-readable summary (top spans, per-shard
# utilization, outliers) and the trace itself land in ci-trace/ for
# the workflow's flight-recorder artifact — download trace.json and
# drop it into ui.perfetto.dev to see the campaign timeline.
.PHONY: ci-trace
ci-trace:
	rm -rf ci-trace && mkdir -p ci-trace
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 2 \
	  -trace ci-trace/trace.json -stall-deadline 120s -metrics ci-trace/trace-metrics.json > ci-trace/findings.txt || true
	$(GO) run ./cmd/tame-trace -assert 'spans(campaign/s)>0,spans(check/)>0,spans(pass/)>0,instants(finding)==counter(findings),instants(finding)>0,instants(watchdog_stall)==0' ci-trace/trace.json
	$(GO) run ./cmd/tame-trace summarize ci-trace/trace.json > ci-trace/summary.txt
	$(GO) run ./cmd/tame-metrics -check 'watchdog_stalls_total=0,trace_events_total>0,campaign_refuted_total>0,span_wall_ns{span="check/behaviors_src"}>0' ci-trace/trace-metrics.json
