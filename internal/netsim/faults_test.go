package netsim

import (
	"errors"
	"reflect"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/graph"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// buildPolarSpec assembles an ER_q Allreduce spec with the Equation 2
// split, without running it — fault tests pick their own configs.
func buildPolarSpec(t *testing.T, q, m int, forestKind string) (Spec, float64) {
	t.Helper()
	pg, err := er.New(q)
	if err != nil {
		t.Fatal(err)
	}
	var forest []*trees.Tree
	var topo *graph.Graph
	switch forestKind {
	case "lowdepth":
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			t.Fatal(err)
		}
		forest, err = trees.LowDepthForest(l)
		if err != nil {
			t.Fatal(err)
		}
		topo = pg.G
	case "hamiltonian":
		s, err := singer.New(q)
		if err != nil {
			t.Fatal(err)
		}
		forest, err = trees.HamiltonianForest(s, 30, 42)
		if err != nil {
			t.Fatal(err)
		}
		topo = s.Topology()
	case "single":
		tr, err := trees.SingleTreeBaseline(pg.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		forest = []*trees.Tree{tr}
		topo = pg.G
	default:
		t.Fatalf("unknown forest kind %q", forestKind)
	}
	wf := bandwidth.ForForest(forest, 1.0)
	split, err := bandwidth.SubvectorSplit(m, wf.PerTree)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: topo, Forest: forest, Split: split,
		Inputs: randInputs(topo.N(), m, int64(q))}
	return spec, wf.Aggregate
}

// firstTreeLink returns the first parent edge of forest tree ti,
// canonicalised to u < v.
func firstTreeLink(spec Spec, ti int) [2]int {
	for v, p := range spec.Forest[ti].Parent {
		if p >= 0 {
			if v < p {
				return [2]int{v, p}
			}
			return [2]int{p, v}
		}
	}
	panic("tree has no edges")
}

// TestFaultRecoveryPerEmbedding is the tentpole acceptance scenario: a
// single link fails mid-reduction on ER_7 under each multi-tree
// embedding; the run must detect the loss, abort the crossing trees,
// re-issue their elements, and still deliver a numerically correct
// allreduce at every node, with post-recovery bandwidth matching the
// surviving forest's waterfill.
func TestFaultRecoveryPerEmbedding(t *testing.T) {
	for _, kind := range []string{"lowdepth", "hamiltonian"} {
		t.Run(kind, func(t *testing.T) {
			m := 3000
			spec, _ := buildPolarSpec(t, 7, m, kind)
			link := firstTreeLink(spec, 0)
			plan := &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.LinkDown, U: link[0], V: link[1], At: 200},
			}}
			cfg := Config{LinkLatency: 3, VCDepth: 6, Faults: plan}
			res, err := Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOutputs(t, spec, res)

			if len(res.Recoveries) != 1 {
				t.Fatalf("recoveries = %d, want 1 (%+v)", len(res.Recoveries), res.Recoveries)
			}
			rec := res.Recoveries[0]
			if len(rec.FailedLinks) != 1 || rec.FailedLinks[0] != link {
				t.Errorf("recovery blamed links %v, want [%v]", rec.FailedLinks, link)
			}
			if rec.Cycle <= 200 {
				t.Errorf("recovery at cycle %d, before the fault at 200", rec.Cycle)
			}
			if res.DroppedFlits == 0 {
				t.Error("link failure mid-reduction dropped no flits")
			}
			maxDead := 2 // low-depth congestion bound (Theorem 7.6)
			if kind == "hamiltonian" {
				maxDead = 1 // edge-disjoint trees (Theorem 7.19)
			}
			if len(res.DeadTrees) < 1 || len(res.DeadTrees) > maxDead {
				t.Errorf("%d dead trees %v, want 1..%d", len(res.DeadTrees), res.DeadTrees, maxDead)
			}

			// Post-recovery bandwidth ≈ the surviving forest's waterfill.
			dead := make(map[int]bool)
			for _, ti := range res.DeadTrees {
				dead[ti] = true
			}
			var survivors []*trees.Tree
			for ti, tr := range spec.Forest {
				if !dead[ti] {
					survivors = append(survivors, tr)
				}
			}
			agg := bandwidth.ForForest(survivors, 1.0).Aggregate
			if res.PostRecoveryBW < 0.7*agg || res.PostRecoveryBW > 1.15*agg {
				t.Errorf("post-recovery bandwidth %.3f vs surviving waterfill %.3f (outside [0.7, 1.15]×)",
					res.PostRecoveryBW, agg)
			}
		})
	}
}

// TestSingleTreeLinkFailureLosesEverything: the single-tree baseline has
// no survivors to recover onto — any used-link failure is fatal.
func TestSingleTreeLinkFailureLosesEverything(t *testing.T) {
	spec, _ := buildPolarSpec(t, 7, 2000, "single")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100},
	}}
	_, err := Run(spec, Config{LinkLatency: 3, VCDepth: 6, Faults: plan})
	if !errors.Is(err, ErrAllTreesLost) {
		t.Fatalf("err = %v, want ErrAllTreesLost", err)
	}
}

// TestTransientFaultStillKillsTree: a transient window that loses flits
// breaks the stream permanently — the link heals, but the trees crossing
// it are aborted and their work re-issued, and the result stays correct.
func TestTransientFaultStillKillsTree(t *testing.T) {
	m := 1200
	spec, _ := buildPolarSpec(t, 3, m, "lowdepth")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkTransient, U: link[0], V: link[1], At: 150, Until: 200},
	}}
	res, err := Run(spec, Config{LinkLatency: 3, VCDepth: 6, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(res.Recoveries))
	}
	if len(res.DeadTrees) == 0 {
		t.Error("transient loss killed no trees")
	}
}

// TestDegradedLinkNoRecovery: a degraded link loses nothing, so no
// recovery fires — the run just slows to the token-bucket rate.
func TestDegradedLinkNoRecovery(t *testing.T) {
	m := 512
	spec := lineSpec(t, 5, m)
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDegraded, U: 1, V: 2, At: 1, Bandwidth: 0.25},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 0 || res.DroppedFlits != 0 || len(res.DeadTrees) != 0 {
		t.Errorf("degraded link triggered recovery: %+v", res)
	}
	// The reduce stream over 1→2 is metered at 0.25 flits/cycle, so the
	// run serialises to ≥ 4m cycles, versus ~m fault-free.
	if res.Cycles < 4*m {
		t.Errorf("cycles = %d with a 0.25× link, want ≥ %d (fault-free: %d)", res.Cycles, 4*m, base.Cycles)
	}
	if res.Cycles > 4*m+600 {
		t.Errorf("cycles = %d way above the metering bound %d", res.Cycles, 4*m)
	}
	if res.Cycles <= base.Cycles {
		t.Errorf("degraded run (%d cycles) not slower than fault-free (%d)", res.Cycles, base.Cycles)
	}
}

// TestEngineStallDelaysRun: a stalled reduction engine back-pressures
// without losing anything; the run finishes correctly, later.
func TestEngineStallDelaysRun(t *testing.T) {
	m := 256
	spec := lineSpec(t, 5, m) // root is node 2
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := base.Cycles + 100
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.EngineStall, Node: 2, At: 1, Until: stallEnd},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 0 || res.DroppedFlits != 0 {
		t.Errorf("engine stall dropped flits or recovered: %+v", res)
	}
	// The root computes nothing before stallEnd, so the broadcast cannot
	// have finished earlier.
	if res.Cycles < stallEnd {
		t.Errorf("cycles = %d, want ≥ stall window end %d", res.Cycles, stallEnd)
	}
	if res.Cycles <= base.Cycles {
		t.Errorf("stalled run (%d cycles) not slower than fault-free (%d)", res.Cycles, base.Cycles)
	}
}

// TestDisableRecoveryReturnsProgressError pins the satellite-2 contract:
// with recovery off, a faulted link strands the run and the timeout
// error names the stalled tree and the failed link.
func TestDisableRecoveryReturnsProgressError(t *testing.T) {
	spec := lineSpec(t, 5, 256)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 1, V: 2, At: 50},
	}}
	cfg := Config{LinkLatency: 2, VCDepth: 4, ProgressTimeout: 200,
		Faults: plan, DisableRecovery: true}
	_, err := Run(spec, cfg)
	if err == nil {
		t.Fatal("faulted run with recovery disabled completed")
	}
	var pe *ProgressError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ProgressError", err, err)
	}
	if pe.IdleCycles <= 200 {
		t.Errorf("IdleCycles = %d, want > ProgressTimeout 200", pe.IdleCycles)
	}
	if pe.PendingFlits <= 0 {
		t.Errorf("PendingFlits = %d, want > 0", pe.PendingFlits)
	}
	if pe.LastProgressCycle >= pe.Cycle {
		t.Errorf("LastProgressCycle %d not before Cycle %d", pe.LastProgressCycle, pe.Cycle)
	}
	if !reflect.DeepEqual(pe.StalledTrees, []int{0}) {
		t.Errorf("StalledTrees = %v, want [0]", pe.StalledTrees)
	}
	wl := pe.WorstLink
	if !(wl == [2]int{1, 2} || wl == [2]int{2, 1}) {
		t.Errorf("WorstLink = %v, want the faulted link 1-2", wl)
	}
	if pe.WorstLinkOutstanding <= 0 {
		t.Errorf("WorstLinkOutstanding = %d, want > 0", pe.WorstLinkOutstanding)
	}
}

// TestFaultOnUnusedLinkIsNoop: a fault on a topology link no tree uses
// must not perturb the run at all.
func TestFaultOnUnusedLinkIsNoop(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	tr, err := trees.FromParent(2, []int{1, 2, -1}) // uses (0,1) and (1,2) only
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: g, Forest: []*trees.Tree{tr}, Split: []int{64},
		Inputs: randInputs(3, 64, 9)}
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 0, V: 2, At: 10},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if res.Cycles != base.Cycles || res.DroppedFlits != 0 || len(res.Recoveries) != 0 {
		t.Errorf("unused-link fault perturbed the run: %d vs %d cycles, %d drops",
			res.Cycles, base.Cycles, res.DroppedFlits)
	}
}

// TestFaultRunDeterminism: the same plan, spec, and config must replay
// bit-for-bit — identical traces, outputs, and recovery records.
func TestFaultRunDeterminism(t *testing.T) {
	m := 1200
	spec, _ := buildPolarSpec(t, 3, m, "lowdepth")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 150},
	}}
	run := func() ([]TraceEvent, *Result) {
		var evs []TraceEvent
		cfg := Config{LinkLatency: 3, VCDepth: 6, Faults: plan,
			Trace: func(ev TraceEvent) { evs = append(evs, ev) }}
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return evs, res
	}
	evA, resA := run()
	evB, resB := run()
	if len(evA) != len(evB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if resA.Cycles != resB.Cycles || resA.DroppedFlits != resB.DroppedFlits ||
		!reflect.DeepEqual(resA.Recoveries, resB.Recoveries) ||
		!reflect.DeepEqual(resA.Outputs, resB.Outputs) {
		t.Error("fault-injected runs diverged")
	}
	checkOutputs(t, spec, resA)
}

// TestFaultSpecValidation: plan endpoints must fit the topology and the
// op must be Allreduce.
func TestFaultSpecValidation(t *testing.T) {
	spec := lineSpec(t, 5, 8)
	out := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 1, V: 99, At: 10},
	}}
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: out}); err == nil {
		t.Error("out-of-range link endpoint accepted")
	}
	node := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.EngineStall, Node: 7, At: 10, Until: 20},
	}}
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: node}); err == nil {
		t.Error("out-of-range stall node accepted")
	}
	ok := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 1, V: 2, At: 10},
	}}
	spec.Op = OpReduce
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: ok}); err == nil {
		t.Error("fault plan accepted for OpReduce")
	}
}
