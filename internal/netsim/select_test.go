package netsim_test

import (
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// designPoint is the spec shape Run sees for one (q, embedding, m) point
// of the scorecards and benchmarks: the embedding's forest with the
// Equation 2 split. The predicate reads nothing else, so inputs are
// left out.
func designPoint(t *testing.T, inst *core.Instance, kind core.EmbeddingKind, m int) netsim.Spec {
	t.Helper()
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatal(err)
	}
	split, err := bandwidth.SubvectorSplit(m, e.Model.PerTree)
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Spec{Topology: e.Topology, Forest: e.Forest, Split: split}
}

// TestEventLoopSelection pins which loop Run selects on every point the
// benchmark workloads, the scorecards and CI run, without simulating:
// latency-bound points (pipeline fill longer than the longest per-tree
// stream) go to the event loop; bandwidth-bound, faulted and
// rate-capped runs stay on the cycle loop.
func TestEventLoopSelection(t *testing.T) {
	insts := map[int]*core.Instance{}
	for _, q := range []int{3, 5, 7, 11, 17, 31} {
		inst, err := core.NewInstance(q)
		if err != nil {
			t.Fatal(err)
		}
		insts[q] = inst
	}
	l1 := netsim.Config{LinkLatency: 1, VCDepth: 4}
	l10 := netsim.Config{LinkLatency: 10, VCDepth: 10}
	type point struct {
		q    int
		kind core.EmbeddingKind
		m    int
		cfg  netsim.Config
	}
	var event, cycle []point
	// latency-sweep: every Hamiltonian row, and the low-depth row whose
	// 10-cycle fill through depth-3 trees outlasts its ≈4-element streams.
	for _, m := range []int{64, 256, 1024, 4096} {
		event = append(event, point{17, core.Hamiltonian, m, l10})
	}
	event = append(event, point{17, core.LowDepth, 64, l10})
	// scorecard, busy-q31 and the q=31 scorecard: latency-1 links
	// against long streams.
	for _, q := range []int{3, 5, 7, 11} {
		for _, kind := range []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian} {
			cycle = append(cycle, point{q, kind, 16384, l1})
		}
	}
	cycle = append(cycle,
		point{31, core.LowDepth, 16384, l1},
		point{31, core.Hamiltonian, 16384, l1},
		point{31, core.Hamiltonian, 196608, l1})

	for _, p := range event {
		if spec := designPoint(t, insts[p.q], p.kind, p.m); !netsim.EventLoopFits(spec, p.cfg) {
			t.Errorf("q=%d %v m=%d L=%d: cycle loop selected, want event", p.q, p.kind, p.m, p.cfg.LinkLatency)
		}
	}
	for _, p := range cycle {
		if spec := designPoint(t, insts[p.q], p.kind, p.m); netsim.EventLoopFits(spec, p.cfg) {
			t.Errorf("q=%d %v m=%d L=%d: event loop selected, want cycle", p.q, p.kind, p.m, p.cfg.LinkLatency)
		}
	}

	// The shape that would pick the event loop stays on the cycle loop
	// once a fault plan or an engine-rate cap is attached.
	spec := designPoint(t, insts[17], core.Hamiltonian, 64)
	faulted := l10
	faulted.Faults = &faults.Plan{}
	capped := l10
	capped.EngineRate = 1
	for name, cfg := range map[string]netsim.Config{"faults": faulted, "engine-rate": capped} {
		if netsim.EventLoopFits(spec, cfg) {
			t.Errorf("%s: event loop selected, want cycle", name)
		}
	}
}

// TestEventLoopSelectionQ127 covers the q=127 CI smoke (Hamiltonian,
// m=2048, 10-cycle links). Every midpoint-rooted Hamiltonian tree has
// depth (N−1)/2 (Lemma 7.17), so one tree stands for the forest, and
// giving it the whole vector makes the check hold for every split.
func TestEventLoopSelectionQ127(t *testing.T) {
	s, err := singer.New(127)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := trees.ForestFromPairs(s, s.HamiltonianPairs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	spec := netsim.Spec{Topology: s.Topology(), Forest: forest, Split: []int{2048}}
	if cfg := (netsim.Config{LinkLatency: 10, VCDepth: 10}); !netsim.EventLoopFits(spec, cfg) {
		t.Errorf("q=127 hamiltonian m=2048: cycle loop selected, want event")
	}
}
