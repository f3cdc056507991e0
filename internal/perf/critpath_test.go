package perf

import (
	"reflect"
	"strings"
	"testing"

	"polarfly/internal/critpath"
)

// TestCritPathQ3 runs the smallest real critical-path sweep: every
// embedding at q=3, fault-free and under the worst-case link failure.
// Every analysable point must conserve cycles exactly with zero residue,
// fault-free points must be serialization-dominated on the hottest link,
// and faulted multi-tree points must blame exactly the simulator's
// measured recovery latency.
func TestCritPathQ3(t *testing.T) {
	cfg := DefaultCritPathConfig()
	cfg.Qs = []int{3}
	cfg.M = 2048
	cfg.FailAt = 300
	points, err := CritPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 fault-free + 3 faulted (single-tree faulted aborts).
	if len(points) != 6 {
		t.Fatalf("%d points, want 6: %+v", len(points), points)
	}
	for _, pt := range points {
		id := pt.Embedding
		if pt.Faulted {
			id += " faulted"
		}
		if pt.AllTreesLost {
			if pt.Embedding != "single-tree" || !pt.Faulted {
				t.Errorf("%s: unexpected AllTreesLost", id)
			}
			continue
		}
		if pt.AnalysisError != "" {
			t.Errorf("%s: analysis failed: %s", id, pt.AnalysisError)
			continue
		}
		if !pt.ConservationOK {
			t.Errorf("%s: blame does not sum to %d cycles: %+v", id, pt.Cycles, pt.Blame)
		}
		if pt.Unattributed != 0 {
			t.Errorf("%s: %d unattributed cycles", id, pt.Unattributed)
		}
		if !pt.Faulted {
			if pt.DominantClass != "serialization" {
				t.Errorf("%s: dominant class %q, want serialization", id, pt.DominantClass)
			}
			if len(pt.TopSerialization) == 0 {
				t.Errorf("%s: no serialization bottleneck link recorded", id)
			}
			if pt.RecoveriesMeasured != 0 || pt.RecoveriesOnPath != 0 {
				t.Errorf("%s: fault-free point recorded recoveries: %+v", id, pt)
			}
		} else {
			if pt.RecoveriesMeasured == 0 {
				t.Errorf("%s: fault plan produced no recovery", id)
			}
			if pt.RecoveriesOnPath != pt.RecoveriesMeasured {
				t.Errorf("%s: path traversed %d recoveries, measured %d",
					id, pt.RecoveriesOnPath, pt.RecoveriesMeasured)
			}
			if pt.RecoveryBlameCycles != pt.MeasuredRecoveryCycles {
				t.Errorf("%s: recovery blame %d != measured latency %d",
					id, pt.RecoveryBlameCycles, pt.MeasuredRecoveryCycles)
			}
		}
	}
	if fails := CritPathFailures(points); len(fails) != 0 {
		t.Errorf("unexpected critpath failures: %v", fails)
	}
}

// TestCritPathDeterministic: same config, identical points — including
// across serial and parallel sweeps.
func TestCritPathDeterministic(t *testing.T) {
	cfg := DefaultCritPathConfig()
	cfg.Qs = []int{3}
	cfg.M = 512
	cfg.FailAt = 100
	cfg.Parallel = 1
	a, err := CritPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	b, err := CritPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("point %d differs between serial and parallel runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestCritPathConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CritPathConfig)
		sub  string
	}{
		{"no qs", func(c *CritPathConfig) { c.Qs = nil }, "at least one q"},
		{"bad m", func(c *CritPathConfig) { c.M = 0 }, "must be positive"},
		{"bad fail-at", func(c *CritPathConfig) { c.FailAt = 0 }, "fail-at"},
		{"bad q", func(c *CritPathConfig) { c.Qs = []int{6} }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultCritPathConfig()
			cfg.M = 64
			c.mut(&cfg)
			_, err := CritPath(cfg)
			if err == nil {
				t.Fatal("no error")
			}
			if c.sub != "" && !strings.Contains(err.Error(), c.sub) {
				t.Errorf("error %q does not mention %q", err, c.sub)
			}
		})
	}
}

// TestCritPathFailures checks the gate on fabricated points.
func TestCritPathFailures(t *testing.T) {
	top := []critpath.LinkBlame{{From: 0, To: 1, Cycles: 60}}
	points := []CritPathPoint{
		{Embedding: "aborted", Faulted: true, AllTreesLost: true},
		{Embedding: "ok", Cycles: 100, ConservationOK: true,
			DominantClass: "serialization", TopSerialization: top},
		{Embedding: "leaky", Cycles: 100, ConservationOK: true, Unattributed: 7,
			DominantClass: "serialization", TopSerialization: top},
		{Embedding: "congested", Cycles: 100, ConservationOK: true,
			DominantClass: "congestion", TopSerialization: top},
		{Embedding: "mismatched", Faulted: true, Cycles: 100, ConservationOK: true,
			RecoveriesMeasured: 1, RecoveriesOnPath: 1,
			RecoveryBlameCycles: 40, MeasuredRecoveryCycles: 41},
		{Embedding: "broken", Cycles: 100, AnalysisError: "no delivery event"},
	}
	fails := CritPathFailures(points)
	if len(fails) != 4 {
		t.Fatalf("%d failures, want 4: %v", len(fails), fails)
	}
	if got := CritPathFailures(points[:2]); len(got) != 0 {
		t.Errorf("healthy points reported failures: %v", got)
	}
}

// TestWriteCritPathMarkdown renders a snapshot and spot-checks the table.
func TestWriteCritPathMarkdown(t *testing.T) {
	cfg := DefaultCritPathConfig()
	cfg.Qs = []int{3}
	cfg.M = 512
	cfg.FailAt = 100
	points, err := CritPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		Schema: SnapshotSchema, Label: "test", Kind: KindCritPath,
		CritPath: points, CritPathConfig: &cfg,
	}
	var sb strings.Builder
	if err := WriteCritPathMarkdown(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Critical-path blame scorecard", "serialization",
		"fault-free", "faulted", "aborted as predicted"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestCritPathMarkdownOKMatchesFailures renders each fabricated point on
// its own and checks the table's ok column says **NO** exactly when the
// gate rejects the point — including a fault-free point with no
// serialization link and a path that traversed more recovery rounds
// than the simulator measured.
func TestCritPathMarkdownOKMatchesFailures(t *testing.T) {
	top := []critpath.LinkBlame{{From: 0, To: 1, Cycles: 60}}
	points := []CritPathPoint{
		{Embedding: "ok", Cycles: 100, ConservationOK: true,
			DominantClass: "serialization", TopSerialization: top},
		{Embedding: "no-top-link", Cycles: 100, ConservationOK: true,
			DominantClass: "serialization"},
		{Embedding: "overcounted", Faulted: true, Cycles: 100, ConservationOK: true,
			RecoveriesMeasured: 1, RecoveriesOnPath: 2},
		{Embedding: "mismatched", Faulted: true, Cycles: 100, ConservationOK: true,
			RecoveriesMeasured: 1, RecoveriesOnPath: 1,
			RecoveryBlameCycles: 40, MeasuredRecoveryCycles: 41},
	}
	for _, pt := range points {
		var sb strings.Builder
		s := &Snapshot{Label: "test", Kind: KindCritPath, CritPath: []CritPathPoint{pt}}
		if err := WriteCritPathMarkdown(&sb, s); err != nil {
			t.Fatal(err)
		}
		failing := len(CritPathFailures([]CritPathPoint{pt})) > 0
		if got := strings.Contains(sb.String(), "**NO**"); got != failing {
			t.Errorf("%s: markdown says NO=%v, gate failing=%v:\n%s", pt.Embedding, got, failing, sb.String())
		}
	}
}
