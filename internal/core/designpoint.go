package core

import (
	"errors"
	"fmt"

	"polarfly/internal/bandwidth"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
)

// This file holds the decisions every design-point gate shares: which
// theorem bounds an embedding's bandwidth, how a run's outputs are
// checked, and which single link failure hurts an embedding most.

// Bound names returned by Floor; the scorecard snapshots record them as
// bound_name.
const (
	// BoundThm76 is the Theorem 7.6 floor q·B/2 for the depth-3 forest.
	BoundThm76 = "thm7.6 q·B/2"
	// BoundThm719 is the Theorem 7.19 / Corollary 7.1 optimum
	// ⌊(q+1)/2⌋·B for the edge-disjoint forest.
	BoundThm719 = "thm7.19 (q+1)·B/2"
	// BoundSingleLink is the one-tree baseline's trivial cap of one link
	// bandwidth.
	BoundSingleLink = "single link B"
	// BoundNone names the absence of a proven floor (DepthTwo).
	BoundNone = "none"
)

// Floor returns the proven aggregate-bandwidth floor, in elements per
// cycle at unit link bandwidth, of a kind embedding of order q whose
// forest has the given number of trees, and the name of the theorem
// that proves it. DepthTwo has no proven floor: (0, BoundNone).
func Floor(q int, kind EmbeddingKind, trees int) (float64, string) {
	switch kind {
	case SingleTree:
		return 1.0, BoundSingleLink
	case LowDepth:
		return bandwidth.LowDepthBound(q, 1.0), BoundThm76
	case Hamiltonian:
		return bandwidth.HamiltonianBound(trees, 1.0), BoundThm719
	default:
		return 0, BoundNone
	}
}

// CheckOutputs returns nil when every node of the instance ended with
// exactly want: the element-wise sum of the inputs after an Allreduce,
// the source vector after a Broadcast. Otherwise it describes the first
// difference in node-major order: a wrong number of output rows, a row
// of the wrong length, or the first differing element.
func (in *Instance) CheckOutputs(outputs [][]int64, want []int64) error {
	if len(outputs) != in.N() {
		return fmt.Errorf("%d output rows for %d nodes", len(outputs), in.N())
	}
	for v, row := range outputs {
		if len(row) != len(want) {
			return fmt.Errorf("node %d holds %d elements, want %d", v, len(row), len(want))
		}
		for k, x := range row {
			if x != want[k] {
				return fmt.Errorf("node %d output[%d] = %d, want %d", v, k, x, want[k])
			}
		}
	}
	return nil
}

// WorstCase is the worst-case single link failure of an embedding, as
// the degraded and critical-path gates inject it: one LinkDown on
// WorstCaseLink's link.
type WorstCase struct {
	// Link is the failed undirected link (u < v).
	Link [2]int
	// Plan is the one-fault plan for netsim.Config.Faults.
	Plan *faults.Plan
	// Degraded is the surviving embedding Degrade predicts; nil when the
	// failure kills every tree, so the run must abort with
	// netsim.ErrAllTreesLost.
	Degraded *Embedding
}

// WorstCaseFault plans the worst-case single link failure of e,
// activating at cycle at.
func WorstCaseFault(e *Embedding, at int) (*WorstCase, error) {
	link, deg, err := WorstCaseLink(e)
	if err != nil {
		return nil, err
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: at},
	}}
	return &WorstCase{Link: link, Plan: plan, Degraded: deg}, nil
}

// Outcome checks the error of a run under the fault against the
// prediction. It reports lost when no tree survives and the run aborted
// with netsim.ErrAllTreesLost, as it must. It returns an error when the
// run contradicts the prediction: anything but that abort when no tree
// survives, or any failure when some do.
func (w *WorstCase) Outcome(err error) (lost bool, _ error) {
	if w.Degraded != nil {
		return false, err
	}
	if !errors.Is(err, netsim.ErrAllTreesLost) {
		return false, fmt.Errorf("want ErrAllTreesLost, got %v", err)
	}
	return true, nil
}
