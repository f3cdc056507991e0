.PHONY: build test lint selfcheck hotcheck verify bench bench-netsim bench-netsim-event bench-smoke scorecard scorecard-q31 scorecard-degraded timeline critpath bench-overhead campaign campaign-smoke

build:
	go build ./...

test:
	go test ./...

# lint runs the project's static-analysis suite (determinism, float
# comparison, enum exhaustiveness, error handling). Exit 1 on findings.
lint:
	go run ./cmd/repolint ./...

# selfcheck runs repolint over its own testdata fixtures at the CLI
# level: every analyzer's bad fixture must fail, every clean fixture
# must pass under the full suite.
selfcheck:
	./scripts/selfcheck.sh

# hotcheck cross-checks the static hotalloc proof against measured
# allocations: reruns the q=11 cycle-loop AND event-loop benchmarks and
# asserts every BenchmarkCycleLoop/BenchmarkEventLoop variant stays at or
# below 1 allocs/op. Fails when the static "allocation-free" verdict and
# the measured numbers disagree — in either direction (a regression, or
# a vacuous proof), and when either loop lacks a measured witness.
hotcheck:
	go run ./cmd/benchreport run -label hotcheck -bench 'CycleLoop|EventLoop' -pkg ./internal/netsim -count 3
	go run ./cmd/benchreport hotcheck -bench BenchmarkCycleLoop,BenchmarkEventLoop -root . BENCH_hotcheck.json

# verify is the pre-commit gate: gofmt + vet + build + repolint (with
# fixture selfcheck) + race-enabled tests for the concurrency-bearing
# packages + the full suite + the measured gates (bench smoke,
# hotcheck, scorecards, timeline).
verify:
	./scripts/verify.sh

# bench runs the full benchmark suite through benchreport (5 repetitions
# for spread statistics) and writes BENCH_local.json at the repo root.
bench:
	go run ./cmd/benchreport run -label local -count 5

# bench-netsim reruns the q=11 hot-loop benchmarks (fault-free and
# faulted) and writes BENCH_netsim-local.json for comparison against the
# committed pre-optimization baseline:
#   go run ./cmd/benchreport compare BENCH_netsim.json BENCH_netsim-local.json
bench-netsim:
	go run ./cmd/benchreport run -label netsim-local -bench HotLoop -pkg ./internal/netsim -count 5

# bench-netsim-event reruns the event-loop benchmarks (the q=11 event
# loop and the q=31 cycle-vs-event scale point, a latency-bound shape on
# which Run selects the event loop) and writes
# BENCH_netsim-event-local.json for comparison against the committed
# baseline. The wide threshold absorbs runner drift while still failing
# if the event loop's order-of-magnitude advantage on that shape
# evaporates:
#   go run ./cmd/benchreport compare -threshold 2.0 BENCH_netsim-event.json BENCH_netsim-event-local.json
bench-netsim-event:
	go run ./cmd/benchreport run -label netsim-event-local -bench 'EventLoop|EngineScale' -pkg ./internal/netsim -count 3

# bench-smoke is the CI-sized variant: one iteration per benchmark, just
# enough to prove the pipeline (go test -bench → parser → snapshot)
# stays healthy. Writes BENCH_smoke.json.
bench-smoke:
	go run ./cmd/benchreport run -label smoke -count 1 -benchtime 1x

# scorecard sweeps q ∈ {3,5,7,11} through the cycle simulator and checks
# measured bandwidth against the Algorithm 1 model and the Theorem
# 7.6 / 7.19 floors. Writes BENCH_scorecard.json; exits 1 on violation.
scorecard:
	go run ./cmd/benchreport scorecard

# scorecard-q31 runs the full §7.3-scale design point: the q=31 (N=993)
# sweep, gated against the Theorem 7.6 / 7.19 floors exactly like the
# main scorecard. The Hamiltonian fill transient grows with tree depth
# (N−1)/2 = 496, so the vector scales up with q to keep the steady state
# dominant (m=196608 lands the point at −7.5% of the Theorem 7.19 floor;
# the default m=16384 would sit at −49%). Every point is bandwidth-bound
# (fill 496 cycles against streams ≥ 12288 elements), so the simulator
# runs them on its cycle loop. Writes BENCH_q31.json; exits 1 on
# violation. CI regenerates it and byte-compares against the committed
# snapshot (the advance loop never changes a point). No trace consumer
# is attached: the gate reads the simulator's own counters. Measured on
# a 2-vCPU host with -parallel 1 and GOMEMLIMIT=3800MiB: 128 s wall,
# 3.7 GiB peak RSS. The n×m input and output matrices (1.56 GB each)
# dominate memory, and each extra -parallel worker holds another
# output matrix.
scorecard-q31:
	go run ./cmd/benchreport scorecard -q 31 -m 196608 -label q31

# scorecard-degraded fails the worst-case link mid-reduction for every
# embedding and gates the simulator's measured post-recovery bandwidth
# against the core.Degrade analytical prediction. Writes
# BENCH_degraded.json; exits 1 on violation.
scorecard-degraded:
	go run ./cmd/benchreport scorecard -degraded -label degraded

# timeline runs the streaming-telemetry gate at the default point (q=7,
# m=16384): every embedding simulated with the tsdb sampler/analyzer
# attached, bound violations and footprint checked. Writes
# TIMELINE_local.json; exits 1 on violation.
timeline:
	go run ./cmd/benchreport timeline -label local

# critpath runs the causal critical-path sweep at the default point
# (q ∈ {3,5,7,11}, m=16384, worst-case link failed at cycle 2000 in the
# faulted half) and gates on exact per-cycle blame conservation.
# Writes CRITPATH_scorecard.json; exits 1 on violation.
critpath:
	go run ./cmd/benchreport critpath -label scorecard

# campaign runs the full seeded chaos campaign: 64 randomized fault
# plans per design point over q ∈ {3,5,7,11} × {low-depth, hamiltonian}
# (512 runs), checking the per-run invariants (exact outputs, flit
# conservation, exact critpath blame, Degrade-predicted bandwidth,
# classified sentinels). Writes CAMPAIGN_scorecard.json; exits 1 on any
# violation.
campaign:
	go run ./cmd/benchreport campaign -label scorecard

# campaign-smoke is the CI-sized variant: q=5 only, 16 plans per
# embedding. Writes CAMPAIGN_smoke.json; exits 1 on any violation.
campaign-smoke:
	go run ./cmd/benchreport campaign -q 5 -runs 16 -m 1024 -label smoke

# bench-overhead measures the sampled vs unsampled hot-loop benchmark
# pairs into one snapshot and gates the sampling overhead at 5% median
# ns/op. Writes BENCH_overhead.json.
bench-overhead:
	go run ./cmd/benchreport run -label overhead -bench HotLoop -pkg ./internal/netsim,./internal/tsdb -count 5
	go run ./cmd/benchreport overhead BENCH_overhead.json
