package perf

import (
	"fmt"
	"io"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
)

// KindTimeline is the Snapshot.Kind of a streaming-telemetry timeline
// sweep (see TimelineConfig).
const KindTimeline = "timeline"

// TimelineConfig parameterises the streaming-telemetry sweep: one
// simulated Allreduce per embedding of one design point, with the tsdb
// sampler and analyzer attached, gated on the bandwidth bounds, the
// fixed-memory footprint, and — when a fault is injected — the analyzer
// reproducing the simulator's ground-truth fault timing exactly.
type TimelineConfig struct {
	// Q is the PolarFly order and M the Allreduce vector length.
	Q int `json:"q"`
	M int `json:"m"`
	// LinkLatency and VCDepth configure the fabric (latency-1 defaults
	// keep the fill transient small, like the scorecard).
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// SampleEvery, Windows, Levels, and Factor size the tsdb sampler.
	SampleEvery int `json:"sample_every"`
	Windows     int `json:"windows"`
	Levels      int `json:"levels"`
	Factor      int `json:"factor"`
	// Seed drives the workload and the Hamiltonian search.
	Seed int64 `json:"seed"`
	// Tolerance widens the analyzer's bound checks.
	Tolerance float64 `json:"tolerance"`
	// MaxBytes caps the sampler footprint per run; 0 disables the gate.
	MaxBytes int `json:"max_bytes,omitempty"`
	// FaultAt, when > 0, fails the first edge of tree 0 at that cycle on
	// every multi-tree embedding (the single-tree baseline stays
	// fault-free — a link failure kills its only tree) and cross-checks
	// the analyzer's telemetry-derived events against the fault plan and
	// the simulator's recovery record.
	FaultAt int `json:"fault_at,omitempty"`
	// Parallel is the parrun pool size; excluded from snapshots because
	// the ordered commit makes output independent of it.
	Parallel int `json:"-"`
}

// DefaultTimelineConfig mirrors the scorecard calibration: latency-1
// links and a vector long enough that steady state dominates, sampled at
// the CLI's default 64-cycle window.
func DefaultTimelineConfig() TimelineConfig {
	return TimelineConfig{
		Q: 7, M: 16384, LinkLatency: 1, VCDepth: 4,
		SampleEvery: 64, Windows: 64, Levels: 3, Factor: 8,
		Seed: core.DefaultSeed, Tolerance: 0.10,
	}
}

// Timeline sweeps every embedding of the design point through a sampled
// simulation and returns one tsdb snapshot per embedding, in
// core.ComparisonKinds order. Each run is independent — sampler and
// analyzer are job-local — so cfg.Parallel of them
// run on a parrun pool with ordered commit keeping the result
// byte-identical to a serial sweep.
func Timeline(cfg TimelineConfig) ([]*tsdb.Snapshot, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: timeline vector length must be positive, got %d", cfg.M)
	}
	if cfg.SampleEvery < 1 {
		return nil, fmt.Errorf("perf: timeline needs SampleEvery ≥ 1, got %d", cfg.SampleEvery)
	}
	kinds := core.ComparisonKinds(cfg.Q)
	return parrun.Map(cfg.Parallel, len(kinds), func(i int) (*tsdb.Snapshot, error) {
		return timelineRun(cfg, kinds[i])
	})
}

// Telemetry is one run's tsdb rig: the bounded-memory sampler, the
// analyzer checking its windows against the design point's bounds, and
// the metadata of the snapshot built from them.
type Telemetry struct {
	sampler  *tsdb.Sampler
	analyzer *tsdb.Analyzer
	meta     tsdb.SnapshotMeta
}

// AttachTelemetry builds the telemetry rig for embedding e of order q
// and vector length m, and wires its sampler into c. Tolerance widens
// the analyzer's bound checks; faulted turns off the fault-free floor
// check, which a mid-run failure legitimately breaks.
func AttachTelemetry(sc tsdb.Config, q, m int, e *core.Embedding, tolerance float64, faulted bool, c *netsim.Config) (*Telemetry, error) {
	s, err := tsdb.New(sc)
	if err != nil {
		return nil, err
	}
	floor, _ := core.Floor(q, e.Kind, len(e.Forest))
	meta := tsdb.SnapshotMeta{
		Q: q, Kind: e.Kind.String(), M: m, Nodes: e.Topology.N(),
		Aggregate: e.Model.Aggregate, Optimal: bandwidth.Optimal(q, 1.0), Floor: floor,
	}
	a := tsdb.NewAnalyzer(s, tsdb.AnalyzerConfig{
		Tolerance: tolerance,
		Bounds: tsdb.Bounds{Nodes: meta.Nodes, Aggregate: meta.Aggregate,
			Optimal: meta.Optimal, Floor: meta.Floor, FaultFree: !faulted},
		Predicted: core.ModelLinkLoads(e),
	})
	c.SampleEvery = sc.SampleEvery
	c.Sample = s.Sample
	return &Telemetry{sampler: s, analyzer: a, meta: meta}, nil
}

// Snapshot builds the run's timeline snapshot from what the sampler and
// analyzer have seen.
func (t *Telemetry) Snapshot() *tsdb.Snapshot {
	return tsdb.BuildSnapshot(t.sampler, t.analyzer, t.meta)
}

// timelineRun simulates one embedding with the telemetry stack attached.
func timelineRun(cfg TimelineConfig, kind core.EmbeddingKind) (*tsdb.Snapshot, error) {
	inst, err := core.NewInstance(cfg.Q)
	if err != nil {
		return nil, err
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	faulted := cfg.FaultAt > 0 && len(e.Forest) > 1
	runCfg := netsim.Config{LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth}
	tel, err := AttachTelemetry(tsdb.Config{SampleEvery: cfg.SampleEvery, Windows: cfg.Windows,
		Levels: cfg.Levels, Factor: cfg.Factor}, cfg.Q, cfg.M, e, cfg.Tolerance, faulted, &runCfg)
	if err != nil {
		return nil, err
	}
	var plan *faults.Plan
	if faulted {
		var u, v int
		for w, p := range e.Forest[0].Parent {
			if p >= 0 {
				u, v = w, p
				break
			}
		}
		plan = &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: cfg.FaultAt},
		}}
		runCfg.Faults = plan
	}
	inputs := workload.Vectors(inst.N(), cfg.M, 1000, cfg.Seed)
	res, err := inst.Allreduce(e, inputs, runCfg)
	if err != nil {
		return nil, fmt.Errorf("perf: timeline q=%d %v: %w", cfg.Q, kind, err)
	}
	sn := tel.Snapshot()
	if plan != nil {
		sn.GroundTruth = groundTruth(sn, plan.Faults[0].At, res.Result)
	}
	return sn, nil
}

// groundTruth builds the simulator-side event record of a run with one
// LinkDown at cycle at and checks the analyzer's telemetry-derived events
// against it: same fault cycle (the fault fires only if the run reaches
// it), same recovery cycles, same latency attribution — exactly.
func groundTruth(sn *tsdb.Snapshot, at int, res *netsim.Result) *tsdb.GroundTruth {
	gt := &tsdb.GroundTruth{Match: true}
	if at <= res.Cycles {
		gt.FaultCycles = append(gt.FaultCycles, at)
	}
	for _, r := range res.Recoveries {
		gt.RecoverCycles = append(gt.RecoverCycles, r.Cycle)
		gt.Latencies = append(gt.Latencies, r.Cycle-at)
	}
	if len(sn.Faults) != len(gt.FaultCycles) || len(sn.Recoveries) != len(gt.RecoverCycles) {
		gt.Match = false
		return gt
	}
	for i, f := range sn.Faults {
		if f.Cycle != gt.FaultCycles[i] {
			gt.Match = false
		}
	}
	for i, r := range sn.Recoveries {
		if r.Cycle != gt.RecoverCycles[i] || r.Latency != gt.Latencies[i] {
			gt.Match = false
		}
	}
	return gt
}

// TimelineFailures lists every way the sweep violates the telemetry
// contract: a run with no points, a bound violation, a sampler footprint
// above the ceiling, or telemetry-derived fault events that disagree
// with the trace ground truth. Empty means the timeline gate passes.
func TimelineFailures(runs []*tsdb.Snapshot, cfg TimelineConfig) []string {
	var fails []string
	for _, sn := range runs {
		id := fmt.Sprintf("q=%d %s", sn.Meta.Q, sn.Meta.Kind)
		if len(sn.Points) == 0 {
			fails = append(fails, id+": timeline has no points")
			continue
		}
		if last := sn.Points[len(sn.Points)-1]; last.End != sn.Cycles {
			fails = append(fails, fmt.Sprintf("%s: timeline ends at cycle %d of %d", id, last.End, sn.Cycles))
		}
		if sn.ViolationCount > 0 {
			v := sn.Violations[0]
			fails = append(fails, fmt.Sprintf("%s: %d bound violation(s), first: %s",
				id, sn.ViolationCount, v.String()))
		}
		if cfg.MaxBytes > 0 && sn.FootprintBytes > cfg.MaxBytes {
			fails = append(fails, fmt.Sprintf("%s: sampler footprint %d bytes exceeds the %d-byte ceiling",
				id, sn.FootprintBytes, cfg.MaxBytes))
		}
		if gt := sn.GroundTruth; gt != nil && !gt.Match {
			fails = append(fails, fmt.Sprintf(
				"%s: telemetry-derived fault events diverge from trace ground truth (telemetry %d/%d, trace %d/%d)",
				id, len(sn.Faults), len(sn.Recoveries), len(gt.FaultCycles), len(gt.RecoverCycles)))
		}
	}
	return fails
}

// WriteTimelineMarkdown renders every run's phase timeline.
func WriteTimelineMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "# Telemetry timelines — %s\n\n", s.Label); err != nil {
		return err
	}
	for i, sn := range s.Timeline {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := sn.WriteMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}
