package perf

import (
	"reflect"
	"strings"
	"testing"
)

// TestDegradedScorecardQ3 runs the smallest real fault-injection sweep:
// worst-case link failures mid-reduction at q=3. The multi-tree
// embeddings must recover with correct outputs and a post-recovery
// bandwidth near the Degrade prediction; the single tree must abort.
func TestDegradedScorecardQ3(t *testing.T) {
	cfg := DefaultDegradedConfig()
	cfg.Q = 3
	cfg.M = 6144
	cfg.FailAt = 800
	points, err := DegradedScorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantEmb := []string{"single-tree", "low-depth", "hamiltonian"}
	if len(points) != len(wantEmb) {
		t.Fatalf("%d points, want %d: %+v", len(points), len(wantEmb), points)
	}
	for i, pt := range points {
		if pt.Embedding != wantEmb[i] {
			t.Errorf("point %d embedding %q, want %q", i, pt.Embedding, wantEmb[i])
		}
	}
	if !points[0].AllTreesLost {
		t.Error("single-tree point did not record AllTreesLost")
	}
	for _, pt := range points[1:] {
		if pt.AllTreesLost {
			t.Errorf("%s: lost all trees on a single failure", pt.Embedding)
			continue
		}
		if !pt.OutputsOK {
			t.Errorf("%s: fault-injected outputs wrong", pt.Embedding)
		}
		if pt.RecoveryCycle <= pt.FailAt {
			t.Errorf("%s: recovery at %d, not after the fault at %d",
				pt.Embedding, pt.RecoveryCycle, pt.FailAt)
		}
		if len(pt.DeadTrees) == 0 || pt.Reissued <= 0 || pt.DroppedFlits <= 0 {
			t.Errorf("%s: recovery telemetry empty: %+v", pt.Embedding, pt)
		}
		if !pt.Within {
			t.Errorf("%s: post-recovery %.3f vs predicted %.3f (%.1f%%) outside ±%.0f%%",
				pt.Embedding, pt.MeasuredBW, pt.PredictedBW, 100*pt.RelErr, 100*cfg.Tolerance)
		}
	}
	if fails := DegradedFailures(points); len(fails) != 0 {
		t.Errorf("unexpected degraded failures: %v", fails)
	}
}

// TestDegradedScorecardDeterministic: same config, identical points.
func TestDegradedScorecardDeterministic(t *testing.T) {
	cfg := DefaultDegradedConfig()
	cfg.Q = 3
	cfg.M = 2048
	cfg.FailAt = 300
	cfg.Tolerance = 0.5 // small m; only determinism matters here
	a, err := DegradedScorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DegradedScorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("point %d differs between runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestDegradedConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DegradedConfig)
		sub  string
	}{
		{"bad m", func(c *DegradedConfig) { c.M = 0 }, "must be positive"},
		{"bad fail-at", func(c *DegradedConfig) { c.FailAt = 0 }, "fail-at"},
		{"bad tolerance", func(c *DegradedConfig) { c.Tolerance = 1.0 }, "out of [0, 1)"},
		{"bad q", func(c *DegradedConfig) { c.Q = 6 }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultDegradedConfig()
			c.mut(&cfg)
			_, err := DegradedScorecard(cfg)
			if err == nil {
				t.Fatal("no error")
			}
			if c.sub != "" && !strings.Contains(err.Error(), c.sub) {
				t.Errorf("error %q does not mention %q", err, c.sub)
			}
		})
	}
}

// TestDegradedFailures checks the gate on fabricated points.
func TestDegradedFailures(t *testing.T) {
	points := []DegradedPoint{
		{Embedding: "aborted", AllTreesLost: true},
		{Embedding: "ok", RecoveryCycle: 100, PredictedBW: 2, MeasuredBW: 1.95,
			RelErr: -0.025, Within: true, OutputsOK: true},
		{Embedding: "drifted", RecoveryCycle: 100, PredictedBW: 2, MeasuredBW: 1.0,
			RelErr: -0.5, Within: false, OutputsOK: true},
		{Embedding: "silent", RecoveryCycle: 0, PredictedBW: 2, MeasuredBW: 0,
			RelErr: -1, Within: false, OutputsOK: false},
	}
	fails := DegradedFailures(points)
	if len(fails) != 4 {
		t.Fatalf("%d failures, want 4 (drift + no-recovery + wrong outputs + drift): %v", len(fails), fails)
	}
	if got := DegradedFailures(points[:2]); len(got) != 0 {
		t.Errorf("healthy points reported failures: %v", got)
	}
}

// TestDegradedMarkdownOKMatchesFailures renders each fabricated point on
// its own and checks the table's ok column says **NO** exactly when the
// gate rejects the point — including a run within tolerance that never
// recovered.
func TestDegradedMarkdownOKMatchesFailures(t *testing.T) {
	points := []DegradedPoint{
		{Embedding: "ok", RecoveryCycle: 100, PredictedBW: 2, MeasuredBW: 1.95,
			RelErr: -0.025, Within: true, OutputsOK: true},
		{Embedding: "no-recovery", RecoveryCycle: 0, PredictedBW: 2, MeasuredBW: 2,
			Within: true, OutputsOK: true},
		{Embedding: "drifted", RecoveryCycle: 100, PredictedBW: 2, MeasuredBW: 1.0,
			RelErr: -0.5, Within: false, OutputsOK: true},
	}
	for _, pt := range points {
		var sb strings.Builder
		s := &Snapshot{Label: "test", Kind: KindDegraded, Degraded: []DegradedPoint{pt}}
		if err := WriteDegradedMarkdown(&sb, s); err != nil {
			t.Fatal(err)
		}
		failing := len(DegradedFailures([]DegradedPoint{pt})) > 0
		if got := strings.Contains(sb.String(), "**NO**"); got != failing {
			t.Errorf("%s: markdown says NO=%v, gate failing=%v:\n%s", pt.Embedding, got, failing, sb.String())
		}
	}
}
