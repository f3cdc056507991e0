package perf

import (
	"bytes"
	"strings"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/tsdb"
)

func timelineTestConfig() TimelineConfig {
	cfg := DefaultTimelineConfig()
	cfg.Q = 5
	cfg.M = 4096
	cfg.SampleEvery = 32
	cfg.Windows = 32
	cfg.Parallel = 2
	return cfg
}

func TestTimelineFaultFree(t *testing.T) {
	cfg := timelineTestConfig()
	runs, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := core.ComparisonKinds(cfg.Q)
	if len(runs) != len(kinds) {
		t.Fatalf("got %d runs for %d kinds", len(runs), len(kinds))
	}
	for i, sn := range runs {
		if sn.Meta.Kind != kinds[i].String() {
			t.Errorf("run %d: kind %q, want %q (sweep order)", i, sn.Meta.Kind, kinds[i])
		}
		if sn.Schema != tsdb.SnapshotSchema {
			t.Errorf("%s: schema %q", sn.Meta.Kind, sn.Schema)
		}
		if len(sn.Points) == 0 {
			t.Fatalf("%s: no points", sn.Meta.Kind)
		}
		if first, last := sn.Points[0], sn.Points[len(sn.Points)-1]; first.Start != 0 || last.End != sn.Cycles {
			t.Errorf("%s: points span (%d,%d], want (0,%d]", sn.Meta.Kind, first.Start, last.End, sn.Cycles)
		}
		if sn.FootprintBytes <= 0 {
			t.Errorf("%s: footprint %d", sn.Meta.Kind, sn.FootprintBytes)
		}
		if sn.GroundTruth != nil {
			t.Errorf("%s: unexpected ground truth on a fault-free run", sn.Meta.Kind)
		}
	}
	if fails := TimelineFailures(runs, cfg); len(fails) != 0 {
		t.Fatalf("fault-free timeline failures: %v", fails)
	}
}

func TestTimelineDeterministic(t *testing.T) {
	cfg := timelineTestConfig()
	cfg.M = 1024
	first, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	second, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	for _, sn := range first {
		if err := sn.WriteMarkdown(&a); err != nil {
			t.Fatal(err)
		}
	}
	for _, sn := range second {
		if err := sn.WriteMarkdown(&b); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatal("timeline output depends on the pool size")
	}
}

func TestTimelineFaulted(t *testing.T) {
	cfg := timelineTestConfig()
	cfg.M = 2048
	cfg.FaultAt = 100
	runs, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawFault := false
	for _, sn := range runs {
		if sn.Meta.Kind == core.SingleTree.String() {
			// A single tree has no surviving trees to recover onto, so the
			// sweep leaves the baseline fault-free.
			if sn.GroundTruth != nil {
				t.Error("single-tree: unexpected fault injection")
			}
			continue
		}
		sawFault = true
		gt := sn.GroundTruth
		if gt == nil {
			t.Fatalf("%s: no ground truth on a faulted run", sn.Meta.Kind)
		}
		if !gt.Match {
			t.Errorf("%s: telemetry events diverge from trace: telemetry %v/%v, trace %v/%v",
				sn.Meta.Kind, sn.Faults, sn.Recoveries, gt.FaultCycles, gt.RecoverCycles)
		}
		if len(sn.Faults) == 0 || sn.Faults[0].Cycle != cfg.FaultAt {
			t.Errorf("%s: telemetry faults %v, want first at cycle %d", sn.Meta.Kind, sn.Faults, cfg.FaultAt)
		}
	}
	if !sawFault {
		t.Fatal("no multi-tree embedding got a fault")
	}
	if fails := TimelineFailures(runs, cfg); len(fails) != 0 {
		t.Fatalf("faulted timeline failures: %v", fails)
	}
}

func TestTimelineFailureGates(t *testing.T) {
	mk := func() *tsdb.Snapshot {
		return &tsdb.Snapshot{
			Meta:           tsdb.SnapshotMeta{Q: 5, Kind: "low-depth"},
			Cycles:         100,
			FootprintBytes: 1000,
			Points:         []tsdb.Point{{Start: 0, End: 100}},
		}
	}
	cfg := TimelineConfig{}

	if fails := TimelineFailures([]*tsdb.Snapshot{mk()}, cfg); len(fails) != 0 {
		t.Fatalf("clean snapshot flagged: %v", fails)
	}

	empty := mk()
	empty.Points = nil
	if fails := TimelineFailures([]*tsdb.Snapshot{empty}, cfg); len(fails) != 1 || !strings.Contains(fails[0], "no points") {
		t.Errorf("empty timeline: %v", fails)
	}

	short := mk()
	short.Points[0].End = 90
	if fails := TimelineFailures([]*tsdb.Snapshot{short}, cfg); len(fails) != 1 || !strings.Contains(fails[0], "ends at cycle 90") {
		t.Errorf("short timeline: %v", fails)
	}

	violated := mk()
	violated.ViolationCount = 2
	violated.Violations = []tsdb.Violation{{Start: 0, End: 100, Kind: "optimal-ceiling", Value: 4, Bound: 3}}
	if fails := TimelineFailures([]*tsdb.Snapshot{violated}, cfg); len(fails) != 1 || !strings.Contains(fails[0], "bound violation") {
		t.Errorf("violations: %v", fails)
	}

	fat := mk()
	bounded := cfg
	bounded.MaxBytes = 999
	if fails := TimelineFailures([]*tsdb.Snapshot{fat}, bounded); len(fails) != 1 || !strings.Contains(fails[0], "ceiling") {
		t.Errorf("footprint ceiling: %v", fails)
	}
	bounded.MaxBytes = 1000
	if fails := TimelineFailures([]*tsdb.Snapshot{fat}, bounded); len(fails) != 0 {
		t.Errorf("footprint at the ceiling flagged: %v", fails)
	}

	diverged := mk()
	diverged.GroundTruth = &tsdb.GroundTruth{FaultCycles: []int{40}, Match: false}
	if fails := TimelineFailures([]*tsdb.Snapshot{diverged}, cfg); len(fails) != 1 || !strings.Contains(fails[0], "ground truth") {
		t.Errorf("ground-truth mismatch: %v", fails)
	}
}

func TestTimelineValidation(t *testing.T) {
	cfg := DefaultTimelineConfig()
	cfg.M = 0
	if _, err := Timeline(cfg); err == nil {
		t.Error("M=0 accepted")
	}
	cfg = DefaultTimelineConfig()
	cfg.SampleEvery = 0
	if _, err := Timeline(cfg); err == nil {
		t.Error("SampleEvery=0 accepted")
	}
}

func TestWriteTimelineMarkdown(t *testing.T) {
	cfg := timelineTestConfig()
	cfg.M = 1024
	runs, err := Timeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{Schema: SnapshotSchema, Label: "tl", Kind: KindTimeline,
		Timeline: runs, TimelineConfig: &cfg}
	var buf bytes.Buffer
	if err := WriteTimelineMarkdown(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Telemetry timelines — tl", "## Telemetry timeline — q=5", "| window | phase |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}

	// The timeline snapshot must survive the JSON round trip benchreport
	// performs.
	var enc bytes.Buffer
	if err := s.WriteJSON(&enc); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(&enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Timeline) != len(runs) || dec.TimelineConfig == nil || dec.TimelineConfig.Q != cfg.Q {
		t.Fatal("timeline fields lost in the JSON round trip")
	}
}
