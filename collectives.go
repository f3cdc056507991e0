package polarfly

// This file extends the public API beyond Allreduce to the two collective
// phases the embedded trees natively support — Reduce (the up-phase) and
// Broadcast (the down-phase) — and to graceful degradation after link
// failures, which the multi-tree embeddings make possible: a single-tree
// embedding dies with its first failed link, the congestion-2 low-depth
// forest loses at most 2 of q trees, and the edge-disjoint Hamiltonian
// forest loses at most 1.

import (
	"fmt"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/graph"
	"polarfly/internal/netsim"
)

// RootSegment is one tree root's share of a multi-tree Reduce: the root
// router holds the reduced values for elements [Offset, Offset+len(Sum)).
type RootSegment struct {
	Root   int
	Offset int
	Sum    []int64
}

// Reduce streams the element-wise sum up the plan's trees. With a
// single-tree plan the entire reduced vector lands at that tree's root;
// with a multi-tree plan each root ends up owning the sub-vector its tree
// reduced — a reduce-scatter across the tree roots. The segments are
// returned in tree order, verified against the exact sum.
func (s *System) Reduce(p *Plan, inputs [][]int64, opt Options) ([]RootSegment, *Stats, error) {
	if p.sys != s {
		return nil, nil, fmt.Errorf("polarfly: plan belongs to a different system")
	}
	m := 0
	if len(inputs) > 0 {
		m = len(inputs[0])
	}
	split, err := p.Split(m)
	if err != nil {
		return nil, nil, err
	}
	res, err := netsim.Run(netsim.Spec{
		Op:       netsim.OpReduce,
		Topology: p.emb.Topology,
		Forest:   p.emb.Forest,
		Split:    split,
		Inputs:   inputs,
	}, netsim.Config{LinkLatency: opt.LinkLatency, VCDepth: opt.VCDepth})
	if err != nil {
		return nil, nil, err
	}
	want := Reduce(inputs)
	var segs []RootSegment
	off := 0
	for i, t := range p.emb.Forest {
		seg := RootSegment{Root: t.Root, Offset: off, Sum: make([]int64, split[i])}
		copy(seg.Sum, res.Outputs[t.Root][off:off+split[i]])
		for k := range seg.Sum {
			if seg.Sum[k] != want[off+k] {
				return nil, nil, fmt.Errorf("polarfly: internal error: reduce segment %d element %d wrong", i, k)
			}
		}
		segs = append(segs, seg)
		off += split[i]
	}
	st := &Stats{Cycles: res.Cycles, Split: split, FlitsSent: res.FlitsSent, PeakBufferFlits: res.PeakBufferFlits}
	if res.Cycles > 0 {
		st.EffectiveBandwidth = float64(m) / float64(res.Cycles)
	}
	return segs, st, nil
}

// Broadcast distributes the source vector from the plan's tree roots to
// every router, using all trees in parallel: tree i carries the sub-vector
// its bandwidth share earns (so aggregate broadcast bandwidth matches the
// plan's Allreduce bandwidth). Every router ends with the full source
// vector; the returned stats mirror Allreduce's.
func (s *System) Broadcast(p *Plan, source []int64, opt Options) (*Stats, error) {
	if p.sys != s {
		return nil, fmt.Errorf("polarfly: plan belongs to a different system")
	}
	m := len(source)
	split, err := p.Split(m)
	if err != nil {
		return nil, err
	}
	// Stage each tree's segment at its root; other inputs are unused.
	inputs := make([][]int64, s.Nodes())
	for v := range inputs {
		inputs[v] = make([]int64, m)
	}
	off := 0
	for i, t := range p.emb.Forest {
		copy(inputs[t.Root][off:off+split[i]], source[off:off+split[i]])
		off += split[i]
	}
	res, err := netsim.Run(netsim.Spec{
		Op:       netsim.OpBroadcast,
		Topology: p.emb.Topology,
		Forest:   p.emb.Forest,
		Split:    split,
		Inputs:   inputs,
	}, netsim.Config{LinkLatency: opt.LinkLatency, VCDepth: opt.VCDepth})
	if err != nil {
		return nil, err
	}
	if err := s.inst.CheckOutputs(res.Outputs, source); err != nil {
		return nil, fmt.Errorf("polarfly: internal error: broadcast %w", err)
	}
	st := &Stats{Cycles: res.Cycles, Split: split, FlitsSent: res.FlitsSent, PeakBufferFlits: res.PeakBufferFlits}
	if res.Cycles > 0 {
		st.EffectiveBandwidth = float64(m) / float64(res.Cycles)
	}
	return st, nil
}

// Subset returns a plan restricted to the given tree indices (for example
// to dedicate disjoint Hamiltonian trees to different tenants), with the
// bandwidth model re-evaluated on the subset. Indices must be distinct and
// in range.
func (p *Plan) Subset(indices []int) (*Plan, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("polarfly: empty subset")
	}
	deg, err := core.SubsetEmbedding(p.emb, indices)
	if err != nil {
		return nil, err
	}
	out := &Plan{
		Method:             p.Method,
		PerTreeBandwidth:   deg.Model.PerTree,
		AggregateBandwidth: deg.Model.Aggregate,
		OptimalBandwidth:   p.OptimalBandwidth,
		MaxCongestion:      deg.Model.MaxCongestion,
		MaxDepth:           deg.MaxDepth,
		emb:                deg,
		sys:                p.sys,
	}
	for _, t := range deg.Forest {
		out.Trees = append(out.Trees, Tree{Root: t.Root, Parent: append([]int(nil), t.Parent...), Depth: t.MaxDepth()})
	}
	return out, nil
}

// PredictWithLinkCapacities evaluates the plan's Algorithm 1 bandwidth on
// a heterogeneous fabric: caps maps specific undirected links to their
// capacity (in link-bandwidth units); unlisted links default to 1.0. Use
// it to plan around degraded optics or trunked spines without re-deriving
// trees.
func (p *Plan) PredictWithLinkCapacities(caps map[[2]int]float64) (perTree []float64, aggregate float64) {
	es := make([][]graph.Edge, len(p.emb.Forest))
	for i, t := range p.emb.Forest {
		es[i] = t.Edges()
	}
	capMap := make(map[graph.Edge]float64, len(caps))
	for l, c := range caps {
		capMap[graph.NewEdge(l[0], l[1])] = c
	}
	r := bandwidth.WaterfillHeterogeneous(es, capMap, 1.0)
	return r.PerTree, r.Aggregate
}

// WithoutLinks returns a degraded plan that survives the failure of the
// given undirected links by dropping every tree that crosses one, with the
// bandwidth model re-evaluated on the survivors. It errors if no tree
// survives (always the case for a single-tree plan whose link failed).
func (p *Plan) WithoutLinks(failed [][2]int) (*Plan, error) {
	deg, err := core.Degrade(p.emb, failed)
	if err != nil {
		return nil, err
	}
	out := &Plan{
		Method:             p.Method,
		PerTreeBandwidth:   deg.Model.PerTree,
		AggregateBandwidth: deg.Model.Aggregate,
		OptimalBandwidth:   p.OptimalBandwidth,
		MaxCongestion:      deg.Model.MaxCongestion,
		MaxDepth:           deg.MaxDepth,
		emb:                deg,
		sys:                p.sys,
	}
	for _, t := range deg.Forest {
		out.Trees = append(out.Trees, Tree{Root: t.Root, Parent: append([]int(nil), t.Parent...), Depth: t.MaxDepth()})
	}
	return out, nil
}
