package perf

import (
	"fmt"
	"io"
	"math"

	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
	"polarfly/internal/workload"
)

// DegradedConfig parameterises the fault-injection validation sweep: one
// worst-case link failure mid-reduction per embedding kind, with the
// measured post-recovery bandwidth gated against the core.Degrade
// analytical prediction.
type DegradedConfig struct {
	// Q is the PolarFly order (odd prime powers exercise all embeddings).
	Q int `json:"q"`
	// M is the Allreduce vector length; must be large enough that plenty
	// of work remains after FailAt, or the post-recovery measurement is
	// latency- rather than bandwidth-dominated.
	M int `json:"m"`
	// LinkLatency and VCDepth configure the simulated fabric.
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// FailAt is the cycle the worst-case link goes down — mid-reduction
	// for the default M.
	FailAt int `json:"fail_at"`
	// Seed drives the workload and the Hamiltonian search.
	Seed int64 `json:"seed"`
	// Tolerance is the acceptable relative gap between the measured
	// post-recovery bandwidth and the Degrade prediction.
	Tolerance float64 `json:"tolerance"`
	// Parallel is the parrun worker-pool size across embedding kinds: 1
	// forces the serial path, <1 means GOMAXPROCS. Ordered commit keeps
	// the returned points identical either way; the field is excluded
	// from snapshots so BENCH_*.json stays byte-identical across runners.
	Parallel int `json:"-"`
}

// DefaultDegradedConfig is calibrated like DefaultScorecardConfig:
// latency-1 links and a large vector keep the measurement in the
// bandwidth regime, and failing at cycle 2000 leaves most of the work to
// the surviving trees.
func DefaultDegradedConfig() DegradedConfig {
	return DegradedConfig{
		Q:           7,
		M:           16384,
		LinkLatency: 1,
		VCDepth:     4,
		FailAt:      2000,
		Seed:        core.DefaultSeed,
		Tolerance:   0.10,
	}
}

// DegradedPoint is one fault-injected design point: the worst-case single
// link failure for an embedding, the recovery the simulator performed,
// and the measured-vs-predicted degraded bandwidth.
type DegradedPoint struct {
	Q         int    `json:"q"`
	Embedding string `json:"embedding"`
	Trees     int    `json:"trees"`
	M         int    `json:"m"`
	// FailedLink is the injected worst-case link (u < v) and FailAt its
	// activation cycle.
	FailedLink [2]int `json:"failed_link"`
	FailAt     int    `json:"fail_at"`
	// AllTreesLost marks the single-tree baseline outcome: the run
	// cannot recover and aborts. The remaining fields are zero.
	AllTreesLost bool `json:"all_trees_lost,omitempty"`
	// DeadTrees, RecoveryCycle, Reissued, and DroppedFlits summarise the
	// recovery round the simulator performed.
	DeadTrees     []int `json:"dead_trees,omitempty"`
	RecoveryCycle int   `json:"recovery_cycle,omitempty"`
	Reissued      int   `json:"reissued,omitempty"`
	DroppedFlits  int   `json:"dropped_flits,omitempty"`
	Cycles        int   `json:"cycles,omitempty"`
	// PredictedBW is the core.Degrade model aggregate of the surviving
	// forest; MeasuredBW the simulator's post-recovery bandwidth;
	// RelErr their relative error; Within whether |RelErr| ≤ Tolerance.
	PredictedBW float64 `json:"predicted_bw"`
	MeasuredBW  float64 `json:"measured_bw"`
	RelErr      float64 `json:"rel_err"`
	Within      bool    `json:"within"`
	// OutputsOK records the end-to-end numerical check: every node ended
	// with the exact element-wise sum despite the mid-run failure.
	OutputsOK bool `json:"outputs_ok"`
}

// DegradedScorecard injects the worst-case single link failure into a
// mid-reduction Allreduce for every embedding kind of cfg.Q and validates
// the dynamic recovery against the analytical degradation model: the
// multi-tree embeddings must finish with numerically correct outputs and
// a post-recovery bandwidth within tolerance of core.Degrade's
// prediction, while the single-tree baseline must abort with
// netsim.ErrAllTreesLost.
func DegradedScorecard(cfg DegradedConfig) ([]DegradedPoint, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: degraded vector length must be positive, got %d", cfg.M)
	}
	if cfg.FailAt < 1 {
		return nil, fmt.Errorf("perf: degraded fail-at cycle must be ≥ 1, got %d", cfg.FailAt)
	}
	if cfg.Tolerance < 0 || cfg.Tolerance >= 1 {
		return nil, fmt.Errorf("perf: tolerance %g out of [0, 1)", cfg.Tolerance)
	}
	kinds := core.ComparisonKinds(cfg.Q)
	return parrun.Map(cfg.Parallel, len(kinds), func(i int) (DegradedPoint, error) {
		return degradedPoint(cfg, kinds[i])
	})
}

// degradedPoint runs the worst-case fault injection for one embedding
// kind. Every piece of state is built locally from the deterministic
// config so concurrent calls never share anything.
func degradedPoint(cfg DegradedConfig, kind core.EmbeddingKind) (DegradedPoint, error) {
	inst, err := core.NewInstance(cfg.Q)
	if err != nil {
		return DegradedPoint{}, err
	}
	inputs := workload.Vectors(inst.N(), cfg.M, 1000, cfg.Seed)
	e, err := inst.Embed(kind)
	if err != nil {
		return DegradedPoint{}, err
	}
	wc, err := core.WorstCaseFault(e, cfg.FailAt)
	if err != nil {
		return DegradedPoint{}, err
	}
	runCfg := netsim.Config{LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth, Faults: wc.Plan}
	pt := DegradedPoint{
		Q: cfg.Q, Embedding: kind.String(), Trees: len(e.Forest),
		M: cfg.M, FailedLink: wc.Link, FailAt: cfg.FailAt,
	}
	res, err := inst.Allreduce(e, inputs, runCfg)
	lost, err := wc.Outcome(err)
	if err != nil {
		return DegradedPoint{}, fmt.Errorf("perf: q=%d %v: %w", cfg.Q, kind, err)
	}
	if lost {
		pt.AllTreesLost = true
		pt.Within = true // nothing to predict; the abort IS the prediction
		return pt, nil
	}
	pt.DeadTrees = res.DeadTrees
	pt.DroppedFlits = res.DroppedFlits
	pt.Cycles = res.Cycles
	if len(res.Recoveries) > 0 {
		pt.RecoveryCycle = res.Recoveries[len(res.Recoveries)-1].Cycle
		pt.Reissued = res.Recoveries[len(res.Recoveries)-1].Reissued
	}
	pt.PredictedBW = wc.Degraded.Model.Aggregate
	pt.MeasuredBW = res.PostRecoveryBW
	if pt.PredictedBW > 0 {
		pt.RelErr = (pt.MeasuredBW - pt.PredictedBW) / pt.PredictedBW
	}
	pt.Within = math.Abs(pt.RelErr) <= cfg.Tolerance
	pt.OutputsOK = inst.CheckOutputs(res.Outputs, netsim.ExpectedOutput(inputs)) == nil
	return pt, nil
}

// DegradedFailures lists every violation of the degraded-run contract:
// wrong outputs, a recovery that never happened, or a measured
// post-recovery bandwidth outside tolerance of the Degrade prediction.
// Empty means the degraded scorecard passes.
func DegradedFailures(points []DegradedPoint) []string {
	var fails []string
	for _, pt := range points {
		if pt.AllTreesLost {
			continue
		}
		if !pt.OutputsOK {
			fails = append(fails, fmt.Sprintf(
				"q=%d %s: fault-injected run produced wrong outputs", pt.Q, pt.Embedding))
		}
		if pt.RecoveryCycle == 0 {
			fails = append(fails, fmt.Sprintf(
				"q=%d %s: no recovery despite link %v failing at cycle %d",
				pt.Q, pt.Embedding, pt.FailedLink, pt.FailAt))
		}
		if !pt.Within {
			fails = append(fails, fmt.Sprintf(
				"q=%d %s: post-recovery %.3f vs Degrade prediction %.3f elem/cycle (%.1f%% off)",
				pt.Q, pt.Embedding, pt.MeasuredBW, pt.PredictedBW, 100*pt.RelErr))
		}
	}
	return fails
}

// WriteDegradedMarkdown renders the degraded scorecard.
func WriteDegradedMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "### Degraded-run scorecard — %s\n\n", s.Label); err != nil {
		return err
	}
	if cfg := s.DegradedConfig; cfg != nil {
		if _, err := fmt.Fprintf(w, "q=%d, m=%d, fail at cycle %d, link latency=%d, VC depth=%d, tolerance=%.0f%%\n\n",
			cfg.Q, cfg.M, cfg.FailAt, cfg.LinkLatency, cfg.VCDepth, 100*cfg.Tolerance); err != nil {
			return err
		}
	}
	if err := writeRow(w, "embedding", "trees", "failed link", "dead trees",
		"recovered@", "predicted B", "measured B", "err", "ok"); err != nil {
		return err
	}
	if err := writeRule(w, 9); err != nil {
		return err
	}
	for _, pt := range s.Degraded {
		if pt.AllTreesLost {
			if err := writeRow(w, pt.Embedding, fmt.Sprintf("%d", pt.Trees),
				fmt.Sprintf("%d-%d", pt.FailedLink[0], pt.FailedLink[1]),
				"all", "-", "0 (no survivors)", "-", "-", "aborted as predicted"); err != nil {
				return err
			}
			continue
		}
		ok := "yes"
		if len(DegradedFailures([]DegradedPoint{pt})) > 0 {
			ok = "**NO**"
		}
		if err := writeRow(w, pt.Embedding, fmt.Sprintf("%d", pt.Trees),
			fmt.Sprintf("%d-%d", pt.FailedLink[0], pt.FailedLink[1]),
			fmt.Sprintf("%v", pt.DeadTrees),
			fmt.Sprintf("%d", pt.RecoveryCycle),
			fmt.Sprintf("%.3f", pt.PredictedBW), fmt.Sprintf("%.3f", pt.MeasuredBW),
			fmt.Sprintf("%+.2f%%", 100*pt.RelErr), ok); err != nil {
			return err
		}
	}
	return nil
}
