// benchreport runs, snapshots, and gates on the repository's benchmarks
// and measured-vs-model scorecard.
//
// Usage:
//
//	benchreport run -label main -count 5            # run `go test -bench`, write BENCH_main.json
//	benchreport run -label pr -in bench.txt         # parse pre-captured bench output instead
//	benchreport compare BENCH_main.json BENCH_pr.json -threshold 0.10
//	                                                # diff two snapshots; exit 1 on regression
//	benchreport scorecard -q 3,5,7,11               # simulate every design point, check the
//	                                                # Alg. 1 / Thm 7.6 / Thm 7.19 contract
//	benchreport scorecard -degraded -q 7            # inject the worst-case link failure per
//	                                                # embedding, gate post-recovery bandwidth
//	                                                # against the core.Degrade prediction
//	benchreport timeline -q 7 -fault-at 200         # simulate with the streaming telemetry
//	                                                # sampler attached, write TIMELINE_<label>.json,
//	                                                # gate on bounds / footprint / ground truth
//	benchreport critpath -q 3,5,7,11                # reconstruct each run's causal critical
//	                                                # path, write CRITPATH_<label>.json, gate
//	                                                # on exact cycle conservation and blame
//	benchreport campaign -q 3,5,7,11 -runs 64       # seeded chaos campaign: randomized fault
//	                                                # plans per design point, write
//	                                                # CAMPAIGN_<label>.json, gate on per-run
//	                                                # invariants (exact outputs, flit
//	                                                # conservation, critpath conservation,
//	                                                # Degrade-tracked bandwidth, classified
//	                                                # terminations)
//	benchreport overhead BENCH_main.json            # pair X ↔ XSampled benchmarks, gate the
//	                                                # sampling cost against the 5% budget
//	benchreport hotcheck BENCH_main.json            # assert the hotalloc analyzer's static
//	                                                # allocation-free proof agrees with the
//	                                                # measured BenchmarkCycleLoop allocs/op
//
// Snapshots are written to BENCH_<label>.json (schema polarfly-bench/v1,
// see internal/perf); timeline sweeps go to TIMELINE_<label>.json with the
// same envelope. A markdown rendering goes to stdout. Exit codes: 0 clean,
// 1 failed benchmarks / gating regression / scorecard violation, 2 usage
// error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"polarfly/internal/analysis"
	"polarfly/internal/chaos"
	"polarfly/internal/parrun"
	"polarfly/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: benchreport <command> [flags]

commands:
  run        run (or parse with -in) go test benchmarks and snapshot them
  compare    diff two snapshots and gate on regressions
  scorecard  run the measured-vs-model simulation sweep
  timeline   run the streaming-telemetry sweep and emit a phase timeline
  critpath   run the causal critical-path sweep and gate on exact
             per-cycle blame conservation
  campaign   run the seeded chaos campaign and gate on per-run
             fault-schedule invariants
  overhead   gate the telemetry sampling cost from a bench snapshot
  hotcheck   cross-check the static hot-path allocation proof against
             measured allocs/op from a bench snapshot

run 'benchreport <command> -h' for the command's flags`)
}

// run is main with injectable args and streams, so the command can be
// tested end to end without a subprocess.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "scorecard":
		return cmdScorecard(args[1:], stdout, stderr)
	case "timeline":
		return cmdTimeline(args[1:], stdout, stderr)
	case "critpath":
		return cmdCritPath(args[1:], stdout, stderr)
	case "campaign":
		return cmdCampaign(args[1:], stdout, stderr)
	case "overhead":
		return cmdOverhead(args[1:], stdout, stderr)
	case "hotcheck":
		return cmdHotcheck(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "benchreport: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

// cmdHotcheck closes the loop between the hotalloc analyzer and the
// benchmark record: the static claim "everything reachable from the
// //lint:hotpath roots is allocation-free" must agree with the measured
// allocs/op of the benchmarks that time exactly those roots. Either side
// failing alone is a red flag — a broken proof or a stale suppression.
func cmdHotcheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport hotcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPrefix := fs.String("bench", "BenchmarkCycleLoop", "comma-separated benchmark name prefixes measuring the hot path; every prefix needs a measured witness")
	maxAllocs := fs.Float64("max", perf.DefaultHotAllocBudget, "maximum measured allocs/op consistent with the static claim")
	root := fs.String("root", ".", "module root for the static analysis")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchreport hotcheck [-bench prefix] [-max f] [-root dir] BENCH.json")
		return 2
	}

	// Static half: hotalloc over the whole module must be clean.
	pkgs, err := analysis.LoadModule(*root)
	if err != nil {
		return fail(stderr, err)
	}
	var allow []analysis.AllowRule
	if data, err := os.ReadFile(filepath.Join(*root, "repolint.allow")); err == nil {
		if allow, err = analysis.ParseAllowFile(string(data)); err != nil {
			return fail(stderr, err)
		}
	}
	diags := analysis.Run(pkgs, []*analysis.Analyzer{analysis.HotAlloc}, allow)
	for _, d := range diags {
		fmt.Fprintln(stderr, "benchreport: FAIL static:", d)
	}
	if len(diags) > 0 {
		return 1
	}

	// Measured half: the hot-loop benchmarks must corroborate the proof.
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	defer func() { _ = f.Close() }()
	snap, err := perf.DecodeSnapshot(f)
	if err != nil {
		return fail(stderr, err)
	}
	var results []perf.HotCheckResult
	for _, prefix := range strings.Split(*benchPrefix, ",") {
		if prefix = strings.TrimSpace(prefix); prefix == "" {
			continue
		}
		rs, err := perf.HotAllocCrossCheck(snap, prefix, *maxAllocs)
		if err != nil {
			return fail(stderr, err)
		}
		results = append(results, rs...)
	}
	bad := 0
	for _, r := range results {
		status := "ok"
		if !r.OK {
			status = "FAIL"
			bad++
		}
		fmt.Fprintf(stdout, "hotcheck: %-4s %s  allocs/op=%g (budget %g)\n", status, r.Name, r.Allocs, *maxAllocs)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchreport: %d benchmark(s) contradict the static allocation-free claim\n", bad)
		return 1
	}
	fmt.Fprintf(stdout, "hotcheck: static hotalloc proof and %d measured benchmark(s) agree\n", len(results))
	return 0
}

// sanitizeLabel maps a label to the filename-safe alphabet so
// "feature/x y" cannot escape the output directory or break globbing.
func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "snapshot"
	}
	return b.String()
}

// snapshotPath is dir/<prefix>_<label>.json with the label sanitized.
func snapshotPath(dir, prefix, label string) string {
	return filepath.Join(dir, prefix+"_"+sanitizeLabel(label)+".json")
}

// fail reports a runtime error on stderr and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "benchreport:", err)
	return 1
}

// newSnapshot is the envelope of every snapshot a command writes.
func newSnapshot(kind, label string) *perf.Snapshot {
	return &perf.Snapshot{Schema: perf.SnapshotSchema, Label: label, Kind: kind, GoVersion: runtime.Version()}
}

// gateExit prints one FAIL line per gate violation and returns the exit
// code: 1 when there is any violation, else 0.
func gateExit(stderr io.Writer, fails []string) int {
	for _, f := range fails {
		fmt.Fprintln(stderr, "benchreport: FAIL:", f)
	}
	if len(fails) > 0 {
		return 1
	}
	return 0
}

// emit is the common tail of the snapshot-writing commands: write art's
// JSON to path, render the markdown report on stdout, note the file on
// stderr as "wrote <path> (<summary>)", and exit through gateExit.
func emit(stdout, stderr io.Writer, path string, art interface{ WriteJSON(io.Writer) error },
	markdown func(io.Writer) error, summary string, fails []string) int {
	f, err := os.Create(path)
	if err != nil {
		return fail(stderr, err)
	}
	if err := art.WriteJSON(f); err != nil {
		_ = f.Close()
		return fail(stderr, err)
	}
	if err := f.Close(); err != nil {
		return fail(stderr, err)
	}
	if err := markdown(stdout); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "benchreport: wrote %s (%s)\n", path, summary)
	return gateExit(stderr, fails)
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "local", "snapshot label; output file is BENCH_<label>.json")
	in := fs.String("in", "", "parse this pre-captured `go test -bench` output file ('-' for stdin) instead of running go test")
	benchRe := fs.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := fs.String("benchtime", "", "go test -benchtime value (e.g. 1x, 100ms); empty for the default")
	count := fs.Int("count", 5, "go test -count repetitions (run-to-run spread needs >1)")
	pkgs := fs.String("pkg", "./...", "comma-separated package patterns passed to go test")
	outDir := fs.String("out", ".", "directory for the BENCH_<label>.json snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var raw io.Reader
	benchFailed := false
	switch {
	case *in == "-":
		raw = os.Stdin
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() { _ = f.Close() }()
		raw = f
	default:
		gt := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem"}
		if *benchtime != "" {
			gt = append(gt, "-benchtime", *benchtime)
		}
		if *count > 1 {
			gt = append(gt, "-count", strconv.Itoa(*count))
		}
		// -pkg accepts a comma-separated list so one run can cover several
		// packages (e.g. ./internal/netsim,./internal/tsdb) — required for
		// the overhead gate, which pairs base and sampled benchmarks from
		// the same snapshot.
		for _, p := range strings.Split(*pkgs, ",") {
			if p = strings.TrimSpace(p); p != "" {
				gt = append(gt, p)
			}
		}
		var buf bytes.Buffer
		cmd := exec.Command("go", gt...)
		// Tee the raw bench output to stderr so progress is visible while
		// the buffer feeds the parser; stdout stays reserved for markdown.
		cmd.Stdout = io.MultiWriter(&buf, stderr)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			// go test exits 1 when a benchmark fails; the output still
			// parses, so record the failure instead of bailing.
			if _, ok := err.(*exec.ExitError); !ok {
				return fail(stderr, err)
			}
			benchFailed = true
		}
		raw = &buf
	}

	parsed, err := perf.ParseBench(raw)
	if err != nil {
		return fail(stderr, err)
	}
	snap := newSnapshot(perf.KindBench, *label)
	snap.Packages = parsed.Packages
	snap.Failed = append(parsed.Failed, parsed.FailedPackages...)
	snap.Benchmarks = perf.Summarize(parsed.Results)
	markdown := func(w io.Writer) error { return perf.WriteBenchMarkdown(w, snap) }
	if code := emit(stdout, stderr, snapshotPath(*outDir, "BENCH", *label), snap, markdown,
		fmt.Sprintf("%d benchmarks", len(snap.Benchmarks)), nil); code != 0 {
		return code
	}
	if benchFailed || !parsed.OK() {
		fmt.Fprintf(stderr, "benchreport: run had failures: %s\n", strings.Join(snap.Failed, ", "))
		return 1
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchreport: no benchmarks matched")
		return 1
	}
	return 0
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative change below which a delta is noise")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchreport compare [-threshold f] OLD.json NEW.json")
		return 2
	}
	load := func(path string) (*perf.Snapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return perf.DecodeSnapshot(f)
	}
	oldSnap, err := load(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	newSnap, err := load(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	cmp := perf.Compare(oldSnap, newSnap, *threshold)
	if err := perf.WriteCompareMarkdown(stdout, cmp); err != nil {
		return fail(stderr, err)
	}
	if !cmp.OK() {
		fmt.Fprintf(stderr, "benchreport: %d gating regression(s) beyond %.0f%%\n",
			cmp.Regressions, 100**threshold)
		return 1
	}
	return 0
}

func cmdScorecard(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultScorecardConfig()
	defDeg := perf.DefaultDegradedConfig()
	fs := flag.NewFlagSet("benchreport scorecard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qList := fs.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	m := fs.Int("m", def.M, "Allreduce vector elements")
	latency := fs.Int("latency", def.LinkLatency, "link latency in cycles")
	vc := fs.Int("vc", def.VCDepth, "virtual channel depth in flits")
	seed := fs.Int64("seed", def.Seed, "workload seed")
	tol := fs.Float64("tol", def.Tolerance, "measured-vs-model tolerance (relative)")
	label := fs.String("label", "scorecard", "snapshot label; output file is BENCH_<label>.json")
	outDir := fs.String("out", ".", "directory for the BENCH_<label>.json snapshot")
	degraded := fs.Bool("degraded", false, "run the fault-injection sweep instead: inject the worst-case link failure per embedding and gate measured post-recovery bandwidth against the core.Degrade prediction")
	failAt := fs.Int("fail-at", defDeg.FailAt, "cycle the worst-case link fails (with -degraded)")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	qs, err := parseInts(*qList)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport: -q:", err)
		return 2
	}
	if *degraded {
		return cmdScorecardDegraded(qs, *m, *latency, *vc, *failAt, *parallel, *seed, *tol, *label, *outDir, stdout, stderr)
	}
	cfg := perf.ScorecardConfig{
		Qs: qs, M: *m, LinkLatency: *latency, VCDepth: *vc,
		Seed: *seed, Tolerance: *tol, Parallel: *parallel,
	}
	points, err := perf.Scorecard(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	snap := newSnapshot(perf.KindScorecard, *label)
	snap.Scorecard = points
	snap.ScorecardConfig = &cfg
	markdown := func(w io.Writer) error { return perf.WriteScorecardMarkdown(w, snap) }
	return emit(stdout, stderr, snapshotPath(*outDir, "BENCH", *label), snap, markdown,
		fmt.Sprintf("%d design points", len(points)), perf.ScorecardFailures(points, cfg.Tolerance))
}

// cmdScorecardDegraded runs the fault-injection sweep for every listed q:
// the worst-case single link failure per embedding, gated on recovery
// happening, outputs staying numerically correct, and the measured
// post-recovery bandwidth landing within tolerance of core.Degrade.
func cmdScorecardDegraded(qs []int, m, latency, vc, failAt, parallel int, seed int64, tol float64,
	label, outDir string, stdout, stderr io.Writer) int {
	// Each q's fault sweep is independent; run them on a parrun pool and
	// flatten in input order so the snapshot matches the serial loop
	// byte for byte. DegradedScorecard fans out across embeddings with
	// the same pool size internally.
	cfgs := make([]perf.DegradedConfig, len(qs))
	for i, q := range qs {
		cfgs[i] = perf.DegradedConfig{
			Q: q, M: m, LinkLatency: latency, VCDepth: vc,
			FailAt: failAt, Seed: seed, Tolerance: tol, Parallel: parallel,
		}
	}
	perQ, err := parrun.Map(parallel, len(cfgs), func(i int) ([]perf.DegradedPoint, error) {
		return perf.DegradedScorecard(cfgs[i])
	})
	if err != nil {
		return fail(stderr, err)
	}
	var points []perf.DegradedPoint
	for _, pts := range perQ {
		points = append(points, pts...)
	}
	var lastCfg perf.DegradedConfig
	if len(cfgs) > 0 {
		lastCfg = cfgs[len(cfgs)-1]
	}
	snap := newSnapshot(perf.KindDegraded, label)
	snap.Degraded = points
	snap.DegradedConfig = &lastCfg
	markdown := func(w io.Writer) error { return perf.WriteDegradedMarkdown(w, snap) }
	return emit(stdout, stderr, snapshotPath(outDir, "BENCH", label), snap, markdown,
		fmt.Sprintf("%d fault-injected points", len(points)), perf.DegradedFailures(points))
}

// cmdTimeline runs the streaming-telemetry sweep: one sampled simulation
// per embedding of the design point, a TIMELINE_<label>.json snapshot,
// the markdown phase timeline on stdout, and a non-zero exit when any run
// violates the telemetry contract (bounds, footprint, ground truth).
func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultTimelineConfig()
	fs := flag.NewFlagSet("benchreport timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := fs.Int("q", def.Q, "PolarFly order")
	m := fs.Int("m", def.M, "Allreduce vector elements")
	latency := fs.Int("latency", def.LinkLatency, "link latency in cycles")
	vc := fs.Int("vc", def.VCDepth, "virtual channel depth in flits")
	sampleEvery := fs.Int("sample-every", def.SampleEvery, "telemetry sampling window in cycles")
	windows := fs.Int("windows", def.Windows, "ring capacity per resolution level")
	levels := fs.Int("levels", def.Levels, "downsampling levels (1×, 8×, 64×, ...)")
	factor := fs.Int("factor", def.Factor, "downsampling factor between levels")
	seed := fs.Int64("seed", def.Seed, "workload seed")
	tol := fs.Float64("tol", def.Tolerance, "bound-check tolerance (relative)")
	maxBytes := fs.Int("max-bytes", 0, "fail if the sampler footprint exceeds this many bytes per run (0 disables)")
	faultAt := fs.Int("fault-at", 0, "inject a link failure at this cycle on multi-tree embeddings and cross-check the telemetry-derived events against the simulator's own fault and recovery record (0 disables)")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	label := fs.String("label", "timeline", "snapshot label; output file is TIMELINE_<label>.json")
	outDir := fs.String("out", ".", "directory for the TIMELINE_<label>.json snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := perf.TimelineConfig{
		Q: *q, M: *m, LinkLatency: *latency, VCDepth: *vc,
		SampleEvery: *sampleEvery, Windows: *windows, Levels: *levels, Factor: *factor,
		Seed: *seed, Tolerance: *tol, MaxBytes: *maxBytes, FaultAt: *faultAt,
		Parallel: *parallel,
	}
	runs, err := perf.Timeline(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	snap := newSnapshot(perf.KindTimeline, *label)
	snap.Timeline = runs
	snap.TimelineConfig = &cfg
	markdown := func(w io.Writer) error { return perf.WriteTimelineMarkdown(w, snap) }
	return emit(stdout, stderr, snapshotPath(*outDir, "TIMELINE", *label), snap, markdown,
		fmt.Sprintf("%d embeddings", len(runs)), perf.TimelineFailures(runs, cfg))
}

// cmdCritPath runs the causal critical-path sweep: every embedding of
// every listed q fault-free and under the worst-case link failure, a
// CRITPATH_<label>.json snapshot, the blame scorecard on stdout, and a
// non-zero exit when any run violates the conservation contract (blame
// not summing exactly to the cycle count, unattributed residue, a
// fault-free run not dominated by serialization, or recovery blame
// disagreeing with the simulator's measured latency).
func cmdCritPath(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultCritPathConfig()
	fs := flag.NewFlagSet("benchreport critpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qList := fs.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	m := fs.Int("m", def.M, "Allreduce vector elements")
	latency := fs.Int("latency", def.LinkLatency, "link latency in cycles")
	vc := fs.Int("vc", def.VCDepth, "virtual channel depth in flits")
	failAt := fs.Int("fail-at", def.FailAt, "cycle the worst-case link fails in the faulted half of the sweep")
	seed := fs.Int64("seed", def.Seed, "workload seed")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	label := fs.String("label", "critpath", "snapshot label; output file is CRITPATH_<label>.json")
	outDir := fs.String("out", ".", "directory for the CRITPATH_<label>.json snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	qs, err := parseInts(*qList)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport: -q:", err)
		return 2
	}
	cfg := perf.CritPathConfig{
		Qs: qs, M: *m, LinkLatency: *latency, VCDepth: *vc,
		FailAt: *failAt, Seed: *seed, Parallel: *parallel,
	}
	points, err := perf.CritPath(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	snap := newSnapshot(perf.KindCritPath, *label)
	snap.CritPath = points
	snap.CritPathConfig = &cfg
	markdown := func(w io.Writer) error { return perf.WriteCritPathMarkdown(w, snap) }
	return emit(stdout, stderr, snapshotPath(*outDir, "CRITPATH", *label), snap, markdown,
		fmt.Sprintf("%d design points", len(points)), perf.CritPathFailures(points))
}

// cmdCampaign runs the seeded chaos campaign: thousands of randomized
// fault plans across the design points, each checked against the
// fault-schedule invariants (exact outputs, flit conservation, critpath
// conservation, Degrade-tracked post-recovery bandwidth, and classified
// terminations). It writes CAMPAIGN_<label>.json, renders the
// survival/classification table on stdout, and exits 1 on any
// violation.
func cmdCampaign(args []string, stdout, stderr io.Writer) int {
	def := chaos.DefaultConfig()
	fs := flag.NewFlagSet("benchreport campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qList := fs.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	embeddings := fs.String("embeddings", strings.Join(def.Embeddings, ","), "comma-separated embedding kinds per q")
	runs := fs.Int("runs", def.Runs, "randomized fault plans per (q, embedding) design point")
	m := fs.Int("m", def.M, "Allreduce vector elements")
	latency := fs.Int("latency", def.LinkLatency, "link latency in cycles")
	vc := fs.Int("vc", def.VCDepth, "virtual channel depth in flits")
	seed := fs.Int64("seed", def.Seed, "campaign seed; each run's plan derives from (seed, q, embedding, run)")
	tolerance := fs.Float64("tolerance", def.Tolerance, "relative error allowed between measured post-recovery bandwidth and the Degrade prediction")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	label := fs.String("label", "campaign", "snapshot label; output file is CAMPAIGN_<label>.json")
	outDir := fs.String("out", ".", "directory for the CAMPAIGN_<label>.json snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	qs, err := parseInts(*qList)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport: -q:", err)
		return 2
	}
	var kinds []string
	for _, part := range strings.Split(*embeddings, ",") {
		if part = strings.TrimSpace(part); part != "" {
			kinds = append(kinds, part)
		}
	}
	cfg := def
	cfg.Qs = qs
	cfg.Embeddings = kinds
	cfg.Runs = *runs
	cfg.M = *m
	cfg.LinkLatency = *latency
	cfg.VCDepth = *vc
	cfg.Seed = *seed
	cfg.Tolerance = *tolerance
	cfg.Parallel = *parallel
	rep, err := chaos.Campaign(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	rep.Label = *label
	total := 0
	for _, pt := range rep.Points {
		total += pt.Runs
	}
	markdown := func(w io.Writer) error { return chaos.WriteMarkdown(w, rep) }
	return emit(stdout, stderr, snapshotPath(*outDir, "CAMPAIGN", *label), rep, markdown,
		fmt.Sprintf("%d design points, %d runs", len(rep.Points), total), rep.Failures())
}

// cmdOverhead loads a bench snapshot, pairs every XSampled benchmark with
// its X twin, and gates the median ns/op overhead against the budget.
func cmdOverhead(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport overhead", flag.ContinueOnError)
	fs.SetOutput(stderr)
	max := fs.Float64("max", perf.DefaultMaxOverhead, "maximum allowed sampling overhead (relative ns/op)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchreport overhead [-max f] BENCH.json")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	defer func() { _ = f.Close() }()
	snap, err := perf.DecodeSnapshot(f)
	if err != nil {
		return fail(stderr, err)
	}
	pairs := perf.TelemetryOverhead(snap)
	if err := perf.WriteOverheadMarkdown(stdout, pairs, *max); err != nil {
		return fail(stderr, err)
	}
	if len(pairs) == 0 {
		fmt.Fprintln(stderr, "benchreport: no base↔sampled benchmark pairs in the snapshot; run both packages into one snapshot (e.g. -pkg ./internal/netsim,./internal/tsdb)")
		return 1
	}
	return gateExit(stderr, perf.OverheadFailures(pairs, *max))
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
