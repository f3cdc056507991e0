package netsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"polarfly/internal/faults"
)

// runCapture executes one simulation on the given loop choice with full
// trace and telemetry capture, returning everything a loop can
// observably produce: the Result, the error, the complete trace stream,
// and deep copies of every sample frame.
type engineRun struct {
	res    *Result
	err    error
	events []TraceEvent
	frames []SampleFrame
}

func runCapture(spec Spec, cfg Config, choice loopChoice) engineRun {
	var r engineRun
	cfg.Trace = func(ev TraceEvent) { r.events = append(r.events, ev) }
	cfg.SampleEvery = 16
	cfg.Sample = func(f *SampleFrame) {
		cp := *f
		cp.Links = append([]LinkCounters(nil), f.Links...)
		r.frames = append(r.frames, cp)
	}
	r.res, r.err = runWith(spec, cfg, choice)
	return r
}

// candidateRun runs the scenario on the loop under test against the
// cycle-loop reference: the event loop, forced, wherever Run may select
// it (fault-free, no EngineRate cap); otherwise the loop Run selects,
// which must be the cycle loop — the event loop carries no fault or
// rate-cap code, so a selection that let such a run reach it diverges
// here.
func candidateRun(spec Spec, cfg Config) (run engineRun, event bool) {
	if cfg.Faults == nil && cfg.EngineRate == 0 {
		return runCapture(spec, cfg, forceEvent), true
	}
	return runCapture(spec, cfg, pickLoop), false
}

// checkCandidate runs the reference and the candidate and compares them.
func checkCandidate(t *testing.T, spec Spec, cfg Config) (ref, got engineRun) {
	t.Helper()
	ref = runCapture(spec, cfg, forceCycle)
	got, event := candidateRun(spec, cfg)
	compareRuns(t, ref, got, event)
	return ref, got
}

// firstTreeEdge returns the first (child, parent) edge of tree 0 — the
// deterministic fault target shared by the faulted scenarios.
func firstTreeEdge(spec Spec) (int, int) {
	for w, p := range spec.Forest[0].Parent {
		if p >= 0 {
			return w, p
		}
	}
	panic("tree 0 has no edges")
}

// diffPlans builds the fault scenarios of the equivalence matrix. All
// activation cycles land mid-reduction for the small vectors used here.
func diffPlans(spec Spec) []struct {
	name string
	plan *faults.Plan
} {
	u, v := firstTreeEdge(spec)
	node := u // a non-root router on tree 0
	return []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"link-down", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: 120},
		}}},
		{"router-down", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.RouterDown, Node: node, At: 90},
		}}},
		{"storm", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkStorm, U: u, V: v, At: 80, Until: 110, Period: 100, Repeat: 3},
			{Kind: faults.LinkDegraded, U: v, V: u, At: 60, Until: 400, Bandwidth: 0.5},
			{Kind: faults.EngineStall, Node: v, At: 70, Until: 200},
		}}},
	}
}

// compareRuns asserts byte-identity between the cycle-loop reference run
// and the candidate run (on the event loop when event is set): identical
// error, identical JSON-encoded Result, identical trace event sequence,
// identical telemetry frames.
func compareRuns(t *testing.T, ref, got engineRun, event bool) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) {
		t.Fatalf("error divergence: cycle=%v candidate=%v", ref.err, got.err)
	}
	if ref.err != nil {
		if ref.err.Error() != got.err.Error() {
			t.Fatalf("error text divergence:\n cycle: %v\n candidate: %v", ref.err, got.err)
		}
		var rp, gp *ProgressError
		if errors.As(ref.err, &rp) != errors.As(got.err, &gp) {
			t.Fatalf("error type divergence: cycle=%T candidate=%T", ref.err, got.err)
		}
	} else {
		// Arena.EventBytes sizes machinery only the event loop allocates —
		// the one documented loop-dependent Result field. Check it obeys
		// its contract, then normalise it out of the byte comparison.
		ra, ga := ref.res.Arena, got.res.Arena
		if ra.EventBytes != 0 {
			t.Fatalf("cycle loop reported EventBytes=%d, want 0", ra.EventBytes)
		}
		if event != (ga.EventBytes > 0) {
			t.Fatalf("candidate reported EventBytes=%d, event loop=%v", ga.EventBytes, event)
		}
		if ga.TotalBytes-ga.EventBytes != ra.TotalBytes {
			t.Fatalf("arena totals disagree beyond EventBytes: cycle %+v candidate %+v", ra, ga)
		}
		got.res.Arena = ra
		defer func() { got.res.Arena = ga }()
		rb, err := json.Marshal(ref.res)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(rb) != string(gb) {
			t.Errorf("Result bytes diverge:\n cycle: %.2000s\n candidate: %.2000s", rb, gb)
		}
	}
	if len(ref.events) != len(got.events) {
		t.Fatalf("trace length divergence: cycle=%d candidate=%d (first divergence: %s)",
			len(ref.events), len(got.events), firstEventDiff(ref.events, got.events))
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			t.Fatalf("trace event %d diverges:\n cycle: %+v\n candidate: %+v", i, ref.events[i], got.events[i])
		}
	}
	if len(ref.frames) != len(got.frames) {
		t.Fatalf("frame count divergence: cycle=%d candidate=%d", len(ref.frames), len(got.frames))
	}
	for i := range ref.frames {
		rf, gf := ref.frames[i], got.frames[i]
		if rf.Cycle != gf.Cycle || rf.Final != gf.Final || rf.Run != gf.Run {
			t.Fatalf("frame %d header/run diverges:\n cycle: %+v\n candidate: %+v", i, rf, gf)
		}
		for j := range rf.Links {
			if rf.Links[j] != gf.Links[j] {
				t.Fatalf("frame %d (cycle %d) link %d diverges:\n cycle: %+v\n candidate: %+v",
					i, rf.Cycle, j, rf.Links[j], gf.Links[j])
			}
		}
	}
}

func firstEventDiff(a, b []TraceEvent) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: cycle %+v vs candidate %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("common prefix of %d events identical", n)
}

// TestEngineEquivalence is the differential harness of DESIGN.md §7h:
// for every swept q × embedding × scenario, the candidate loop (see
// candidateRun) must reproduce the cycle loop byte for byte — Result
// (JSON), trace stream, and telemetry frames — including identical
// classified errors where a fault scenario kills every tree. The
// fault-free scenarios compare the event loop; the faulted ones check
// that Run keeps them on the cycle loop. The q=17 point is the
// latency-bound shape Run hands the event loop by default.
func TestEngineEquivalence(t *testing.T) {
	cfg := Config{LinkLatency: 3, VCDepth: 2}
	for _, q := range []int{3, 5, 7, 11} {
		m := 384
		if q >= 7 {
			m = 768
		}
		for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
			if kind == "lowdepth" && q%2 == 0 {
				continue
			}
			spec := benchSpec(t, q, m, kind)
			for _, sc := range diffPlans(spec) {
				sc := sc
				name := fmt.Sprintf("q=%d/%s/%s", q, kind, sc.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					c := cfg
					c.Faults = sc.plan
					checkCandidate(t, spec, c)
				})
			}
		}
	}
	t.Run("q=17/hamiltonian/latency-bound", func(t *testing.T) {
		t.Parallel()
		spec := benchSpec(t, 17, 64, "hamiltonian")
		c := Config{LinkLatency: 10, VCDepth: 10}
		if !eventLoopFits(spec, c) {
			t.Fatal("Run would not select the event loop for this point")
		}
		checkCandidate(t, spec, c)
	})
}

// TestEngineEquivalenceVariants covers the configuration axes the main
// matrix holds fixed: deep pipelines, reduce/broadcast-only
// collectives on the event loop; a rate-limited reduction engine and the
// fault abort paths (same ProgressError or sentinel at the same cycle) on
// the loop Run selects for them.
func TestEngineEquivalenceVariants(t *testing.T) {
	spec := benchSpec(t, 5, 512, "lowdepth")
	u, v := firstTreeEdge(spec)

	variants := []struct {
		name string
		cfg  Config
		op   Op
	}{
		{"deep-latency", Config{LinkLatency: 10, VCDepth: 16}, OpAllreduce},
		{"latency-bound", Config{LinkLatency: 8, VCDepth: 3}, OpAllreduce},
		{"engine-rate", Config{LinkLatency: 2, VCDepth: 4, EngineRate: 1}, OpAllreduce},
		{"reduce-only", Config{LinkLatency: 3, VCDepth: 2}, OpReduce},
		{"bcast-only", Config{LinkLatency: 3, VCDepth: 2}, OpBroadcast},
	}
	for _, vt := range variants {
		vt := vt
		t.Run(vt.name, func(t *testing.T) {
			t.Parallel()
			sp := spec
			sp.Op = vt.op
			checkCandidate(t, sp, vt.cfg)
		})
	}

	t.Run("no-recovery-stall", func(t *testing.T) {
		t.Parallel()
		c := Config{LinkLatency: 3, VCDepth: 2, ProgressTimeout: 200, DisableRecovery: true,
			Faults: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.LinkDown, U: u, V: v, At: 50},
			}}}
		ref, got := checkCandidate(t, spec, c)
		if ref.err == nil || got.err == nil {
			t.Fatalf("expected both runs to abort: reference=%v candidate=%v", ref.err, got.err)
		}
	})

	t.Run("single-tree-all-lost", func(t *testing.T) {
		t.Parallel()
		sp := benchSpec(t, 5, 256, "single")
		su, sv := firstTreeEdge(sp)
		c := Config{LinkLatency: 3, VCDepth: 2,
			Faults: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.LinkDown, U: su, V: sv, At: 40},
			}}}
		ref, got := checkCandidate(t, sp, c)
		if !errors.Is(ref.err, ErrAllTreesLost) || !errors.Is(got.err, ErrAllTreesLost) {
			t.Fatalf("expected ErrAllTreesLost from both: reference=%v candidate=%v", ref.err, got.err)
		}
	})
}
