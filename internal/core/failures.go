package core

import (
	"fmt"
	"sort"

	"polarfly/internal/graph"
	"polarfly/internal/trees"
)

// TreesUsingLink returns the indices of forest trees whose edge set
// contains the undirected link (u, v).
func TreesUsingLink(forest []*trees.Tree, u, v int) []int {
	e := graph.NewEdge(u, v)
	var out []int
	for i, t := range forest {
		for _, te := range t.Edges() {
			if te == e {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Degrade returns a new embedding that survives the failure of the given
// undirected links, by dropping every tree that crosses a failed link and
// re-evaluating the bandwidth model on the survivors. This is the graceful-
// degradation strategy the multi-tree embeddings enable: because the
// low-depth forest has congestion ≤ 2, one link failure removes at most 2
// of its q trees; because the Hamiltonian forest is edge-disjoint, one
// failure removes at most 1 of its ⌊(q+1)/2⌋ trees. A single-tree
// embedding loses everything.
//
// Degrade returns an error if no tree survives.
func Degrade(e *Embedding, failed [][2]int) (*Embedding, error) {
	dead := make(map[int]bool)
	for _, l := range failed {
		for _, ti := range TreesUsingLink(e.Forest, l[0], l[1]) {
			dead[ti] = true
		}
	}
	var alive []int
	for i := range e.Forest {
		if !dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("core: all %d trees cross a failed link", len(e.Forest))
	}
	return SubsetEmbedding(e, alive)
}

// SubsetEmbedding returns an embedding restricted to the given tree
// indices, with the model re-evaluated. Indices must be distinct and in
// range.
func SubsetEmbedding(e *Embedding, indices []int) (*Embedding, error) {
	seen := make(map[int]bool)
	var forest []*trees.Tree
	for _, i := range indices {
		if i < 0 || i >= len(e.Forest) {
			return nil, fmt.Errorf("core: tree index %d out of range [0,%d)", i, len(e.Forest))
		}
		if seen[i] {
			return nil, fmt.Errorf("core: duplicate tree index %d", i)
		}
		seen[i] = true
		forest = append(forest, e.Forest[i])
	}
	return NewEmbedding(e.Kind, forest, e.Topology), nil
}

// WorstCaseLink returns the undirected link whose single failure hurts
// the embedding most — losing the most trees, ties broken by the lowest
// surviving model aggregate, then by link order (deterministic). The
// returned embedding is the degraded survivor set; it is nil when the
// worst failure kills every tree (the single-tree case).
func WorstCaseLink(e *Embedding) ([2]int, *Embedding, error) {
	cong := trees.Congestion(e.Forest)
	links := make([]graph.Edge, 0, len(cong))
	for l := range cong {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].U != links[j].U {
			return links[i].U < links[j].U
		}
		return links[i].V < links[j].V
	})
	if len(links) == 0 {
		return [2]int{}, nil, fmt.Errorf("core: embedding has no links")
	}
	var worst [2]int
	var worstDeg *Embedding
	worstLost := -1
	worstBW := 0.0
	for _, l := range links {
		deg, err := Degrade(e, [][2]int{{l.U, l.V}})
		lost := len(e.Forest)
		bw := 0.0
		if err == nil {
			lost = len(e.Forest) - len(deg.Forest)
			bw = deg.Model.Aggregate
		}
		if lost > worstLost || (lost == worstLost && bw < worstBW) {
			worstLost, worstBW = lost, bw
			worst = [2]int{l.U, l.V}
			worstDeg = deg
		}
	}
	return worst, worstDeg, nil
}

// FailureToleranceRow records how many trees a worst-case single-link
// failure removes from each embedding — the redundancy argument for
// multi-tree Allreduce.
type FailureToleranceRow struct {
	Kind EmbeddingKind
	// Trees is the forest size before failure.
	Trees int
	// WorstCaseLost is the maximum trees lost to any single link failure.
	WorstCaseLost int
	// WorstCaseRemainingBW is the model aggregate after that worst
	// failure.
	WorstCaseRemainingBW float64
}

// FailureTolerance computes the single-link worst case for each available
// embedding of q.
func FailureTolerance(q int) ([]FailureToleranceRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	var rows []FailureToleranceRow
	for _, kind := range ComparisonKinds(q) {
		e, err := inst.Embed(kind)
		if err != nil {
			return nil, err
		}
		row := FailureToleranceRow{Kind: kind, Trees: len(e.Forest)}
		_, deg, err := WorstCaseLink(e)
		if err != nil {
			return nil, err
		}
		if deg == nil {
			row.WorstCaseLost = len(e.Forest)
			row.WorstCaseRemainingBW = 0
		} else {
			row.WorstCaseLost = len(e.Forest) - len(deg.Forest)
			row.WorstCaseRemainingBW = deg.Model.Aggregate
		}
		rows = append(rows, row)
	}
	return rows, nil
}
