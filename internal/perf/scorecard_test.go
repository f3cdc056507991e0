package perf

import (
	"strings"
	"testing"

	"polarfly/internal/core"
)

// TestScorecardQ3 runs the smallest real sweep end to end and checks the
// measured-vs-model contract plus the link and phase counters read from
// netsim.Result.
func TestScorecardQ3(t *testing.T) {
	cfg := DefaultScorecardConfig()
	cfg.Qs = []int{3}
	cfg.M = 4096
	points, err := Scorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// q=3 is odd, so all three swept embeddings run.
	wantEmb := []string{"single-tree", "low-depth", "hamiltonian"}
	if len(points) != len(wantEmb) {
		t.Fatalf("%d points, want %d: %+v", len(points), len(wantEmb), points)
	}
	for i, pt := range points {
		if pt.Embedding != wantEmb[i] {
			t.Errorf("point %d embedding %q, want %q", i, pt.Embedding, wantEmb[i])
		}
		if pt.Q != 3 || pt.M != cfg.M {
			t.Errorf("%s: q=%d m=%d, want q=3 m=%d", pt.Embedding, pt.Q, pt.M, cfg.M)
		}
		if pt.Cycles <= 0 || pt.Trees <= 0 {
			t.Errorf("%s: cycles=%d trees=%d, want positive", pt.Embedding, pt.Cycles, pt.Trees)
		}
		if pt.ModelBW <= 0 || pt.MeasuredBW <= 0 {
			t.Errorf("%s: model=%v measured=%v, want positive", pt.Embedding, pt.ModelBW, pt.MeasuredBW)
		}
		if pt.BWRelErr < -cfg.Tolerance || pt.BWRelErr > cfg.Tolerance {
			t.Errorf("%s: relative error %.2f%% outside ±%.0f%%",
				pt.Embedding, 100*pt.BWRelErr, 100*cfg.Tolerance)
		}
		if !pt.MeetsBound {
			t.Errorf("%s: measured %.3f below %s floor %.3f",
				pt.Embedding, pt.MeasuredBW, pt.BoundName, pt.Bound)
		}
		if pt.ReducePhaseCycles <= 0 || pt.BcastPhaseCycles <= 0 {
			t.Errorf("%s: phase split %d/%d, want both positive",
				pt.Embedding, pt.ReducePhaseCycles, pt.BcastPhaseCycles)
		}
		if pt.ReducePhaseCycles+pt.BcastPhaseCycles != pt.Cycles {
			t.Errorf("%s: phases %d+%d != cycles %d",
				pt.Embedding, pt.ReducePhaseCycles, pt.BcastPhaseCycles, pt.Cycles)
		}
		if pt.MaxLinkUtil <= 0 {
			t.Errorf("%s: link utilization %v not plumbed", pt.Embedding, pt.MaxLinkUtil)
		}
	}
	// The theorem floors for q=3: low-depth ≥ q·B/2 = 1.5, hamiltonian
	// bound 2·B = ⌊(q+1)/2⌋·B.
	if points[1].BoundName != core.BoundThm76 || points[1].Bound < 1.49 || points[1].Bound > 1.51 {
		t.Errorf("low-depth bound %v (%s), want 1.5 (%s)",
			points[1].Bound, points[1].BoundName, core.BoundThm76)
	}
	if points[2].BoundName != core.BoundThm719 {
		t.Errorf("hamiltonian bound name %q, want %q", points[2].BoundName, core.BoundThm719)
	}
	// Theorem 7.6 congestion structure: low-depth ≤ 2, hamiltonian
	// edge-disjoint (=1, zero shared links).
	if points[1].MaxEdgeCongestion > 2 {
		t.Errorf("low-depth congestion %d > 2", points[1].MaxEdgeCongestion)
	}
	if points[2].MaxEdgeCongestion != 1 || points[2].SharedDirectedLinks != 0 {
		t.Errorf("hamiltonian congestion %d shared %d, want 1 and 0",
			points[2].MaxEdgeCongestion, points[2].SharedDirectedLinks)
	}
	if fails := ScorecardFailures(points, cfg.Tolerance); len(fails) != 0 {
		t.Errorf("unexpected scorecard failures: %v", fails)
	}
}

// TestScorecardDeterministic: the sweep must be byte-for-byte repeatable.
func TestScorecardDeterministic(t *testing.T) {
	cfg := DefaultScorecardConfig()
	cfg.Qs = []int{3}
	cfg.M = 1024
	cfg.Tolerance = 0.5 // small m is out of the bandwidth regime; only determinism matters here
	a, err := Scorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs between runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestScorecardConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ScorecardConfig)
		sub  string
	}{
		{"no qs", func(c *ScorecardConfig) { c.Qs = nil }, "at least one q"},
		{"bad m", func(c *ScorecardConfig) { c.M = 0 }, "must be positive"},
		{"bad tolerance", func(c *ScorecardConfig) { c.Tolerance = 1.0 }, "out of [0, 1)"},
		{"bad q", func(c *ScorecardConfig) { c.Qs = []int{6} }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultScorecardConfig()
			c.mut(&cfg)
			_, err := Scorecard(cfg)
			if err == nil {
				t.Fatal("no error")
			}
			if c.sub != "" && !strings.Contains(err.Error(), c.sub) {
				t.Errorf("error %q does not mention %q", err, c.sub)
			}
		})
	}
}

// TestScorecardFailures checks the failure listing on fabricated points.
func TestScorecardFailures(t *testing.T) {
	points := []ScorePoint{
		{Q: 3, Embedding: "ok", ModelBW: 2, MeasuredBW: 1.95, BWRelErr: -0.025, Bound: 1.5, BoundName: core.BoundThm76, MeetsBound: true},
		{Q: 3, Embedding: "drifted", ModelBW: 2, MeasuredBW: 1.0, BWRelErr: -0.5, Bound: 1.5, BoundName: core.BoundThm76, MeetsBound: false},
	}
	fails := ScorecardFailures(points, 0.10)
	if len(fails) != 2 {
		t.Fatalf("%d failures, want 2 (model drift + bound miss): %v", len(fails), fails)
	}
	if !strings.Contains(fails[0], "drifted") || !strings.Contains(fails[1], "floor") {
		t.Errorf("failure text %v", fails)
	}
	if got := ScorecardFailures(points[:1], 0.10); len(got) != 0 {
		t.Errorf("healthy point reported failures: %v", got)
	}
}
