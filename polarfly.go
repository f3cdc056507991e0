// Package polarfly is a library for high-bandwidth in-network Allreduce on
// the PolarFly network topology, reproducing "In-network Allreduce with
// Multiple Spanning Trees on PolarFly" (Lakhotia, Isham, Monroe, Besta,
// Hoefler, Petrini — SPAA 2023).
//
// PolarFly is the diameter-2 topology built from Erdős–Rényi polarity
// graphs ER_q: for any prime power q it connects N = q²+q+1 routers of
// radix q+1. The paper's contribution — and this library's purpose — is a
// pair of multi-spanning-tree Allreduce embeddings that raise aggregate
// Allreduce bandwidth from one link bandwidth (the single-tree state of
// the art) to nearly the optimal (q+1)/2 link bandwidths:
//
//   - the low-depth solution (Algorithm 3): q trees of depth ≤ 3 with link
//     congestion ≤ 2 and aggregate bandwidth ≥ qB/2 — minimal latency;
//   - the Hamiltonian solution (§7.2): ⌊(q+1)/2⌋ edge-disjoint Hamiltonian
//     paths derived from Singer difference sets — zero congestion, optimal
//     bandwidth for odd q, minimal router state.
//
// # Quick start
//
//	sys, _ := polarfly.New(11)                  // 133 routers, radix 12
//	plan, _ := sys.Plan(polarfly.LowDepth)      // 11 trees, depth ≤ 3
//	out, stats, _ := sys.Allreduce(plan, inputs, polarfly.DefaultOptions())
//
// Allreduce executes on a cycle-accurate simulation of the in-network
// reduction fabric (virtual channels, credit flow control, pipelined
// reduction engines) and returns the verified element-wise sum together
// with performance counters. PredictBandwidth evaluates the paper's
// analytic congestion model (Algorithm 1) without simulating.
package polarfly

import (
	"fmt"
	"sync"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/numtheory"
	"polarfly/internal/routing"
	"polarfly/internal/singer"
)

// System is one PolarFly network instance.
type System struct {
	inst *core.Instance

	routesOnce sync.Once
	routes     *routing.Table
}

// New constructs the PolarFly system of order q. q must be a prime power;
// use FeasibleRadixes to enumerate valid design points.
func New(q int) (*System, error) {
	inst, err := core.NewInstance(q)
	if err != nil {
		return nil, err
	}
	return &System{inst: inst}, nil
}

// FeasibleRadixes lists the router radixes r = q+1 (q prime power) with
// lo ≤ r ≤ hi for which a PolarFly exists.
func FeasibleRadixes(lo, hi int) []int {
	var out []int
	for _, q := range numtheory.PrimePowersUpTo(lo-1, hi-1) {
		out = append(out, q+1)
	}
	return out
}

// Q returns the prime power order of the instance.
func (s *System) Q() int { return s.inst.Q }

// Nodes returns the router count N = q²+q+1.
func (s *System) Nodes() int { return s.inst.N() }

// Radix returns the router radix q+1.
func (s *System) Radix() int { return s.inst.Radix() }

// Links returns every undirected link as a canonical (u, v) pair, u < v.
// PolarFly has q(q+1)²/2 links.
func (s *System) Links() [][2]int {
	es := s.inst.ER.G.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// Degree returns the radix of router v: q for the q+1 quadric routers,
// q+1 for the rest.
func (s *System) Degree(v int) int { return s.inst.ER.G.Degree(v) }

// VertexClass returns "W", "V1" or "V2" — the quadric classification of
// §6.1 that drives the low-depth tree construction.
func (s *System) VertexClass(v int) string { return s.inst.ER.Type(v).String() }

// DifferenceSet returns the Singer difference set underlying the
// Hamiltonian solution (sorted; the paper's Figure 2 values for q=3,4).
func (s *System) DifferenceSet() []int {
	return append([]int(nil), s.inst.Singer.D...)
}

// Neighbors returns router v's directly connected routers in ascending
// order.
func (s *System) Neighbors(v int) []int { return s.inst.ER.G.Neighbors(v) }

// Path returns the deterministic minimal routing path from u to v,
// inclusive of both endpoints. On PolarFly the path has at most 2 hops and
// is unique for non-adjacent routers (Theorem 6.1).
func (s *System) Path(u, v int) []int {
	s.routesOnce.Do(func() { s.routes = routing.New(s.inst.ER.G) })
	return s.routes.Path(u, v)
}

// IsQuadric reports whether router v is one of the q+1 self-orthogonal
// quadric routers (degree q instead of q+1).
func (s *System) IsQuadric(v int) bool { return s.VertexClass(v) == "W" }

// EdgeConnectivity returns λ(ER_q) = q, computed by max-flow: the number
// of link failures needed to disconnect the network, and via
// Nash-Williams–Tutte a lower bound of ⌊q/2⌋ on edge-disjoint spanning
// trees (the Hamiltonian plan achieves the ⌊(q+1)/2⌋ edge-count optimum).
// Cost grows with N²·M; intended for analysis, not hot paths.
func (s *System) EdgeConnectivity() int { return s.inst.ER.G.EdgeConnectivity() }

// Method selects an Allreduce embedding.
type Method int

const (
	// SingleTree embeds one BFS spanning tree — the conventional
	// in-network baseline, bandwidth-capped at one link.
	SingleTree Method = iota
	// LowDepth embeds the Algorithm 3 forest: q trees of depth ≤ 3 with
	// congestion ≤ 2. Requires odd q.
	LowDepth
	// Hamiltonian embeds ⌊(q+1)/2⌋ edge-disjoint Hamiltonian-path trees —
	// zero congestion at depth (N−1)/2.
	Hamiltonian
	// DepthTwo embeds q forced depth-2 BFS trees (unique on PolarFly by
	// Theorem 6.1). Lowest latency, but congestion grows with the tree
	// count, so aggregate bandwidth stalls — included as the natural
	// alternative the paper's depth-3 trees outperform, and as a
	// best-effort multi-tree plan for even q.
	DepthTwo
)

func (m Method) String() string {
	return core.EmbeddingKind(m).String()
}

// Tree is one embedded Allreduce spanning tree in parent-array form.
// Reduction traffic flows from each vertex to Parent[vertex]; the root
// (Parent == -1) holds the full reduction and broadcasts it back down.
type Tree struct {
	Root   int
	Parent []int
	Depth  int
}

// Plan is a ready-to-execute multi-tree Allreduce embedding together with
// its analytic performance model.
type Plan struct {
	// Method that produced the plan.
	Method Method
	// Trees are the embedded spanning trees.
	Trees []Tree
	// PerTreeBandwidth[i] is the Algorithm 1 bandwidth share of tree i at
	// unit link bandwidth.
	PerTreeBandwidth []float64
	// AggregateBandwidth is the achievable Allreduce bandwidth in link
	// bandwidths (Theorem 5.1).
	AggregateBandwidth float64
	// OptimalBandwidth is (q+1)/2, the Corollary 7.1 bound.
	OptimalBandwidth float64
	// MaxCongestion is the worst-case number of trees sharing a link.
	MaxCongestion int
	// MaxDepth is the deepest tree (latency proxy).
	MaxDepth int

	emb *core.Embedding
	sys *System
}

// Plan derives the embedding for the requested method and evaluates the
// paper's bandwidth model on it.
func (s *System) Plan(m Method) (*Plan, error) {
	emb, err := s.inst.Embed(core.EmbeddingKind(m))
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Method:             m,
		PerTreeBandwidth:   emb.Model.PerTree,
		AggregateBandwidth: emb.Model.Aggregate,
		OptimalBandwidth:   bandwidth.Optimal(s.inst.Q, 1.0),
		MaxCongestion:      emb.Model.MaxCongestion,
		MaxDepth:           emb.MaxDepth,
		emb:                emb,
		sys:                s,
	}
	for _, t := range emb.Forest {
		p.Trees = append(p.Trees, Tree{Root: t.Root, Parent: append([]int(nil), t.Parent...), Depth: t.MaxDepth()})
	}
	return p, nil
}

// Split distributes an m-element vector across the plan's trees in
// proportion to their bandwidth (Theorem 5.1, Equation 2).
func (p *Plan) Split(m int) ([]int, error) {
	return bandwidth.SubvectorSplit(m, p.PerTreeBandwidth)
}

// PredictCycles returns the modelled Allreduce time in cycles for an
// m-element vector, excluding pipeline-fill latency: m / ΣB_i at one
// element per cycle per link (Equation 3).
func (p *Plan) PredictCycles(m int) float64 {
	return float64(m) / p.AggregateBandwidth
}

// Options configures the simulated fabric.
type Options struct {
	// LinkLatency is the link pipeline depth in cycles.
	LinkLatency int
	// VCDepth is the per-virtual-channel buffer in flits.
	VCDepth int
}

// DefaultOptions returns the default fabric point (10-cycle links, buffers
// equal to the latency-bandwidth product).
func DefaultOptions() Options { return Options{LinkLatency: 10, VCDepth: 10} }

// Stats reports a simulated Allreduce execution.
type Stats struct {
	// Cycles is the simulated completion time.
	Cycles int
	// ModelCycles is the analytic prediction (bandwidth term only).
	ModelCycles float64
	// EffectiveBandwidth is m/Cycles in elements per cycle.
	EffectiveBandwidth float64
	// Split is the sub-vector assignment used.
	Split []int
	// FlitsSent and PeakBufferFlits are fabric counters.
	FlitsSent       int
	PeakBufferFlits int
}

// Allreduce executes an in-network Allreduce of the input vectors — one
// equal-length vector per router — on the cycle-accurate fabric simulator,
// and returns the reduced vector (identical at every router, and verified
// against the exact element-wise sum before returning) plus execution
// statistics.
func (s *System) Allreduce(p *Plan, inputs [][]int64, opt Options) ([]int64, *Stats, error) {
	if p.sys != s {
		return nil, nil, fmt.Errorf("polarfly: plan belongs to a different system")
	}
	res, err := s.inst.Allreduce(p.emb, inputs, netsim.Config{LinkLatency: opt.LinkLatency, VCDepth: opt.VCDepth})
	if err != nil {
		return nil, nil, err
	}
	want := netsim.ExpectedOutput(inputs)
	if err := s.inst.CheckOutputs(res.Outputs, want); err != nil {
		return nil, nil, fmt.Errorf("polarfly: internal error: %w", err)
	}
	m := len(want)
	st := &Stats{
		Cycles:          res.Cycles,
		ModelCycles:     res.ModelCycles,
		Split:           res.Split,
		FlitsSent:       res.FlitsSent,
		PeakBufferFlits: res.PeakBufferFlits,
	}
	if res.Cycles > 0 {
		st.EffectiveBandwidth = float64(m) / float64(res.Cycles)
	}
	return want, st, nil
}

// Reduce computes the element-wise sum of the inputs directly (no
// simulation) — the reference result Allreduce must reproduce.
func Reduce(inputs [][]int64) []int64 {
	return netsim.ExpectedOutput(inputs)
}

// HamiltonianPairs returns the difference-element pairs (d0, d1) whose
// alternating-sum paths are Hamiltonian — there are φ(N)/2 of them
// (Corollary 7.20).
func (s *System) HamiltonianPairs() [][2]int {
	var out [][2]int
	for _, p := range s.inst.Singer.HamiltonianPairs() {
		out = append(out, [2]int{p.D0, p.D1})
	}
	return out
}

// HamiltonianPath materialises the unique maximal alternating-sum path for
// a difference-element pair (Corollary 7.15). The result is a Hamiltonian
// vertex sequence iff gcd(d0−d1, N) = 1.
func (s *System) HamiltonianPath(d0, d1 int) []int {
	return s.inst.Singer.MaximalPath(singer.Pair{D0: d0, D1: d1})
}
