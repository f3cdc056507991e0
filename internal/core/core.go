// Package core orchestrates the paper's experiments: it bundles the two
// constructions of a PolarFly instance, derives the three Allreduce
// embeddings (single-tree baseline, Algorithm 3 low-depth forest,
// edge-disjoint Hamiltonian forest), evaluates them under the Algorithm 1
// bandwidth model and the cycle-level simulator, and produces the exact
// data series behind every table and figure in the evaluation (§7.3).
package core

import (
	"fmt"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/graph"
	"polarfly/internal/netsim"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// DefaultMISTries is the number of random maximal-independent-set
// instances used when searching for edge-disjoint Hamiltonian paths,
// matching §7.3 of the paper.
const DefaultMISTries = 30

// DefaultSeed makes every randomized search reproducible by default.
const DefaultSeed = 42

// Instance is one PolarFly design point with both of the paper's
// constructions materialised.
type Instance struct {
	// Q is the prime power; radix = Q+1, N = Q²+Q+1.
	Q int
	// ER is the projective-geometry construction (§6.1).
	ER *er.Graph
	// Layout is the Algorithm 2 cluster layout; nil for even Q (the paper
	// covers the odd-q layout).
	Layout *er.Layout
	// Singer is the difference-set construction (§6.2), isomorphic to ER
	// (Theorem 6.6).
	Singer *singer.Graph
}

// NewInstance builds the PolarFly instance for prime power q.
func NewInstance(q int) (*Instance, error) {
	pg, err := er.New(q)
	if err != nil {
		return nil, err
	}
	s, err := singer.New(q)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Q: q, ER: pg, Singer: s}
	if q%2 == 1 {
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			return nil, err
		}
		inst.Layout = l
	}
	return inst, nil
}

// N returns the node count q²+q+1.
func (in *Instance) N() int { return in.ER.N() }

// Radix returns the network radix q+1.
func (in *Instance) Radix() int { return in.Q + 1 }

// EmbeddingKind selects one of the three Allreduce embeddings.
type EmbeddingKind int

const (
	// SingleTree is the one-BFS-tree baseline capped at one link bandwidth.
	SingleTree EmbeddingKind = iota
	// LowDepth is the Algorithm 3 forest: q trees, depth ≤ 3, congestion 2.
	LowDepth
	// Hamiltonian is the §7.2 forest: ⌊(q+1)/2⌋ edge-disjoint Hamiltonian
	// paths rooted at their midpoints.
	Hamiltonian
	// DepthTwo is the forced depth-2 forest (unique BFS trees, one per
	// root): the obvious alternative the paper's depth-3 construction
	// beats — its congestion grows with the tree count because unique
	// 2-paths leave no freedom to steer overlap. Available for all q
	// (including even q, where the paper's low-depth layout is not
	// specified); roots default to the q lowest-numbered vertices.
	DepthTwo
)

func (k EmbeddingKind) String() string {
	switch k {
	case SingleTree:
		return "single-tree"
	case LowDepth:
		return "low-depth"
	case Hamiltonian:
		return "hamiltonian"
	case DepthTwo:
		return "depth-2"
	}
	return fmt.Sprintf("EmbeddingKind(%d)", int(k))
}

// Embedding is a forest together with the topology it is embedded in and
// its model evaluation.
type Embedding struct {
	Kind   EmbeddingKind
	Forest []*trees.Tree
	// Topology is the graph the forest spans (the ER construction for
	// SingleTree/LowDepth, the Singer construction for Hamiltonian; the
	// two are isomorphic).
	Topology *graph.Graph
	// Model is the Algorithm 1 evaluation at one flit per link per cycle.
	Model bandwidth.Result
	// MaxDepth is the deepest tree in the forest (latency proxy).
	MaxDepth int
}

// NewEmbedding wraps a forest spanning topo with its Algorithm 1 model
// and maximum depth.
func NewEmbedding(kind EmbeddingKind, forest []*trees.Tree, topo *graph.Graph) *Embedding {
	e := &Embedding{Kind: kind, Forest: forest, Topology: topo, Model: bandwidth.ForForest(forest, 1)}
	for _, t := range forest {
		e.MaxDepth = max(e.MaxDepth, t.MaxDepth())
	}
	return e
}

// Embed derives the requested embedding. For Hamiltonian it uses
// DefaultMISTries random instances with DefaultSeed; use EmbedSeeded for
// explicit control.
func (in *Instance) Embed(kind EmbeddingKind) (*Embedding, error) {
	return in.EmbedSeeded(kind, DefaultMISTries, DefaultSeed)
}

// EmbedSeeded is Embed with explicit randomized-search parameters.
func (in *Instance) EmbedSeeded(kind EmbeddingKind, tries int, seed int64) (*Embedding, error) {
	var forest []*trees.Tree
	topo := in.ER.G
	var err error
	switch kind {
	case SingleTree:
		var t *trees.Tree
		t, err = trees.SingleTreeBaseline(in.ER.G, 0)
		forest = []*trees.Tree{t}
	case LowDepth:
		if in.Layout == nil {
			return nil, fmt.Errorf("core: the low-depth solution requires odd q (got %d); see §6.1.1", in.Q)
		}
		forest, err = trees.LowDepthForest(in.Layout)
	case Hamiltonian:
		forest, err = trees.HamiltonianForest(in.Singer, tries, seed)
		topo = in.Singer.Topology()
	case DepthTwo:
		roots := make([]int, in.Q)
		for i := range roots {
			roots[i] = i
		}
		forest, err = trees.DepthTwoForest(in.ER.G, roots)
	default:
		return nil, fmt.Errorf("core: unknown embedding kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return NewEmbedding(kind, forest, topo), nil
}

// ModelMaxLinkLoad is the Algorithm 1 prediction of the busiest link's
// steady-state load, in link bandwidths: every tree streams B_i flits per
// cycle through each direction of each of its edges, so a directed link's
// load is the sum of B_i over the trees crossing it. Waterfilling
// saturates the bottleneck link, so on the paper's forests this is 1.0;
// the simulator's measured utilization approaches it from below as
// pipeline fill/drain amortises.
func (e *Embedding) ModelMaxLinkLoad() float64 {
	load := make(map[graph.Edge]float64)
	max := 0.0
	for i, t := range e.Forest {
		for _, edge := range t.Edges() {
			load[edge] += e.Model.PerTree[i]
			if load[edge] > max {
				max = load[edge]
			}
		}
	}
	return max
}

// ModelLinkLoads is the Algorithm 1 prediction per DIRECTED link, keyed
// by {from, to}: each tree streams B_i flits per cycle through both
// directions of each of its edges (reduce up, broadcast down), so a
// directed link's steady-state load is the sum of B_i over the trees
// crossing it. This is the per-link decomposition of ModelMaxLinkLoad,
// in the shape the telemetry analyzer consumes (tsdb.AnalyzerConfig's
// Predicted field) to flag links running hotter than the waterfill says
// they should.
func ModelLinkLoads(e *Embedding) map[[2]int]float64 {
	load := make(map[[2]int]float64)
	for i, t := range e.Forest {
		for _, edge := range t.Edges() {
			load[[2]int{edge.U, edge.V}] += e.Model.PerTree[i]
			load[[2]int{edge.V, edge.U}] += e.Model.PerTree[i]
		}
	}
	return load
}

// AllreduceResult is the outcome of a simulated in-network Allreduce: the
// simulator's own Result (outputs, cycles, link counters, fault
// telemetry, arena footprint) plus the model prediction and the split
// the run used.
type AllreduceResult struct {
	*netsim.Result
	// ModelCycles is the Theorem 5.1 prediction m/ΣB_i (bandwidth term
	// only; pipeline-fill latency comes on top).
	ModelCycles float64
	// Split is the per-tree sub-vector assignment used (Equation 2).
	Split []int
}

// Allreduce simulates an in-network Allreduce of the given inputs over the
// embedding, splitting the vector across trees per Theorem 5.1.
func (in *Instance) Allreduce(e *Embedding, inputs [][]int64, cfg netsim.Config) (*AllreduceResult, error) {
	if len(inputs) != in.N() {
		return nil, fmt.Errorf("core: %d inputs for %d nodes", len(inputs), in.N())
	}
	m := 0
	if len(inputs) > 0 {
		m = len(inputs[0])
	}
	split, err := bandwidth.SubvectorSplit(m, e.Model.PerTree)
	if err != nil {
		return nil, err
	}
	res, err := netsim.Run(netsim.Spec{
		Topology: e.Topology,
		Forest:   e.Forest,
		Split:    split,
		Inputs:   inputs,
	}, cfg)
	if err != nil {
		return nil, err
	}
	return &AllreduceResult{Result: res, ModelCycles: float64(m) / e.Model.Aggregate, Split: split}, nil
}

// VerifyIsomorphism checks Theorem 6.6 on this instance by searching for an
// explicit isomorphism between the Singer graph and the projective ER
// graph. Exponential-time in the worst case; intended for small q.
func (in *Instance) VerifyIsomorphism() ([]int, bool) {
	return graph.Isomorphic(in.Singer.Topology(), in.ER.G)
}
