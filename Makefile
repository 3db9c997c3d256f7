# Convenience targets mirroring the paper artifact's workflow.

.PHONY: build fmt-check loc portable inline test test-race test-faults test-stats fuzz-smoke serve-smoke campaign-smoke kill-smoke bench bench-full bench-e2e bench-test bench-analyze bench-scaling prof-analyze report report-full demo clean

build:
	go build ./...

# Fails, listing the files, if any .go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Non-test Go lines outside bench/, per package directory and in total —
# the number ROADMAP item 7 tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sort | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The portability gate (ROADMAP item 13): cross-builds every command for
# arm64, ppc64le, s390x and riscv64 and fails if go tool objdump finds a
# fused multiply-add in a looppoint/ function that
# scripts/portable_exempt.txt does not exempt with a reason (the table may
# only shrink). Needs only the Go toolchain; ~1 min cold, seconds cached.
portable:
	bash scripts/portable.sh

# The inlining gate: builds internal/exec, internal/timing, internal/dcfg
# and internal/bbv with -gcflags=-m and fails unless every function
# scripts/inline_required.txt names is reported "can inline" (the timing
# loop's short paths, the block-log readers' steps). Seconds.
inline:
	bash scripts/inline.sh

test:
	go test ./...

# Everything under the race detector (slower; exercises the worker pool,
# singleflight memoization, and every concurrent experiment fan-out),
# then core.Run's overlapped full run (and region 0 read off it), two
# simulations sharing one Simulator and its system pool, and a strict
# pool whose failing item cancels a waiting sibling, twenty times over, so
# the goroutines interleave in more than one way.
test-race:
	go test -race ./...
	go test -race -count=20 -run 'RunOverlap|RunBudget|RunFill|SimulateConcurrentCheckpoints|SiblingFailureBeatsCancel' ./internal/core ./internal/timing ./internal/pool

# Fault-tolerance suites (injection, retries, corruption matrices,
# quarantine, degradation, resume) under the race detector, swept over
# five injection seeds. Injection is a pure function of the seed, so
# each seed is a distinct — and exactly reproducible — failure pattern.
test-faults:
	for seed in 1 2 3 4 5; do \
		FAULTS_SEED=$$seed go test -race \
			-run 'Fault|Corrupt|Quarantine|Degrad|Resume|Retr|AttemptCap|Truncat|Panic' \
			./internal/artifact/ ./internal/faults/ ./internal/pool/ ./internal/pinball/ \
			./internal/core/ ./internal/harness/ ./internal/exec/ \
			./internal/serve/ ./internal/campaign/ . \
			|| exit 1; \
	done

# Statistical verification of the selection engines: the estimator
# unit suite, the seeded calibration sweeps (empirical coverage of the
# nominal 95% interval, Neyman-vs-proportional half-widths, estimator
# bias — hundreds of fully seeded trials, so the verdicts are
# deterministic), and the per-engine property/fuzz invariants.
test-stats:
	go test -count=1 ./internal/stats/
	go test -count=1 -run 'Calibration|Selector|Stratified|Golden|Fuzz' \
		-v ./internal/simpoint/

# Every native fuzzer for FUZZTIME each (go test -fuzz takes one target
# and one package at a time). `go test ./...` only replays their seed
# corpora; this is where they mutate. A finding is written under the
# package's testdata/fuzz/ — check it in with the fix.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZTIME) ./internal/pinball/
	go test -run '^$$' -fuzz '^FuzzDecodeBlockLog$$' -fuzztime $(FUZZTIME) ./internal/exec/
	go test -run '^$$' -fuzz '^FuzzSelectors$$' -fuzztime $(FUZZTIME) ./internal/simpoint/
	go test -run '^$$' -fuzz '^FuzzStratifiedAllocation$$' -fuzztime $(FUZZTIME) ./internal/simpoint/
	go test -run '^$$' -fuzz '^FuzzKMeansFastSlow$$' -fuzztime $(FUZZTIME) ./internal/simpoint/

# Boot the lpserved daemon, hit /readyz, run one job and then three
# concurrent ones over POST /v1/jobs, SIGTERM it with three more in
# flight, and assert every one is answered and the drain exits 0.
serve-smoke:
	bash scripts/serve_smoke.sh

# The campaign fabric end to end: lpcoord sharding a 6-job campaign
# across two lpserved workers, one SIGKILLed mid-flight; asserts
# completion, a report byte-identical to a single-node run, and a
# resume that re-simulates nothing (all cache hits, zero dispatches).
campaign-smoke:
	bash scripts/campaign_smoke.sh

# Crash-only worker drill: SIGKILL an lpserved mid-analyze, restart it
# over the same -progress-dir, and assert the resubmitted job resumes
# from its saved recording (recoveries >= 1, recovery_steps_saved > 0) with a
# result byte-identical to an uninterrupted run; then the same with a
# SIGTERM mid-job instead (drain deadline shorter than the job): the
# worker exits 0 and the restart recovers exactly as after the kill.
kill-smoke:
	bash scripts/kill_smoke.sh

# One benchmark per paper table/figure plus ablations (quick subsets).
bench:
	go test -run xxx -bench . -benchtime 1x .

# The complete SPEC CPU2017 + NPB suites (much longer).
bench-full:
	LOOPPOINT_FULL=1 go test -run xxx -bench . -benchtime 1x .

# The end-to-end benchmark (bench/, its own module; BENCHMARK.json is its
# contract). bench-e2e is one small round per workload — a smoke test
# that every job still produces its golden digest, not a measurement;
# for numbers run `go run -C bench .` (see bench/README.md). bench-test
# runs the benchmark's own tests: helpers, golden digests, BENCHMARK.json
# == code, and — because bench/ builds against ../ — that it still
# compiles against the internal APIs it calls.
bench-e2e:
	go run -C bench . -quick

bench-test:
	cd bench && go test ./...

# Stateless vs durable Analyze (recording included; the durable run is
# the same pipeline plus its recovery point — pinball and block log published
# once — cold in a fresh temp dir every iteration). Feeds
# BENCH_analyze.json.
bench-analyze:
	go test -run xxx -bench 'Analyze(Serial|Durable)' \
		-benchtime 20x ./internal/core/

# Where one Analyze spends its time: a CPU profile of the product CLI on
# the benchmark's barrier-free ref input (record + DCFG + event log, the
# BBV pass over the log, selection), listed by cumulative time. Fails unless
# the profile holds samples under core.Analyze, and fails if any of them is
# in RunSchedule: the CLI's Analyze executes the program once, and a
# regression to replay would otherwise only show as a slower benchmark.
# PROF_INPUT=train makes it a sub-second smoke (CI runs that; the test
# input ends inside one 10 ms sampling tick).
PROF_INPUT ?= ref
prof-analyze:
	go run ./cmd/lpprofile -p 657.xz_s.2 -i $(PROF_INPUT) -n 4 -pprof-cpu analyze.prof > /dev/null
	go tool pprof -top -cum -nodecount 30 analyze.prof | tee analyze.prof.txt
	@grep -q 'core\.Analyze' analyze.prof.txt || { echo "prof-analyze: no samples under core.Analyze"; exit 1; }
	@! go tool pprof -top -cum -focus 'core\.Analyze' analyze.prof 2>/dev/null | grep 'exec\.(\*Machine)\.RunSchedule' || \
		{ echo "prof-analyze: core.Analyze replays the recording (RunSchedule has samples under it)"; exit 1; }

# Multi-core scaling sweep: the data-plane and kernel benchmarks at
# GOMAXPROCS widths 1/2/4/8 (results carry a -N suffix per width).
# Feeds the cpus axis in the BENCH_*.json files; on hosts with fewer
# cores the wider runs measure oversubscription, which is still worth
# recording — the pool fan-out must not collapse when oversubscribed.
bench-scaling:
	go test -run xxx -cpu 1,2,4,8 -bench . -benchtime 1000x \
		./internal/pool/
	go test -run xxx -cpu 1,2,4,8 -bench 'Pinball|Checksum' -benchtime 100x \
		./internal/pinball/ ./internal/artifact/
	go test -run xxx -cpu 1,2,4,8 -bench 'PerRegion' -benchtime 20x \
		./internal/timing/
	go test -run xxx -cpu 1,2,4,8 -bench 'Interpreter' -benchtime 100000x \
		./internal/exec/
	go test -run xxx -cpu 1,2,4,8 -bench 'Cluster' -benchtime 3x \
		./internal/simpoint/

# Regenerate the evaluation as a text report.
report:
	go run ./cmd/lpreport -quick

report-full:
	go run ./cmd/lpreport

# The artifact's demo: end-to-end LoopPoint on the demo application.
demo:
	go run ./cmd/looppoint -p demo-matrix-1 -n 8 -i train

clean:
	go clean ./...
