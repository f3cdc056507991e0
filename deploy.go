package polarfly

// This file exposes the deployment surface of a plan: the per-router
// configuration tables (§4.4's port/engine/VC programming) and JSON
// export/import of the tree sets, so plans computed by this library can be
// pushed to external tooling and re-imported losslessly.

import (
	"bytes"
	"fmt"
	"io"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/routercfg"
	"polarfly/internal/serialize"
	"polarfly/internal/trees"
)

// PortStream describes one logical stream on a router port.
type PortStream struct {
	// Tree is the plan-local tree index.
	Tree int
	// Port is the local port number; Ports in RouterConfig maps it to the
	// neighbor router.
	Port int
	// VC is the virtual-channel index within the stream's class
	// (reduction and broadcast are separate classes).
	VC int
}

// RouterTreeConfig is a router's role and port wiring for one tree.
type RouterTreeConfig struct {
	Tree string // "leaf" | "internal" | "root"
	// ReduceIn lists streams feeding the reduction engine; ReduceOut is
	// the upstream output (nil at the root).
	ReduceIn  []PortStream
	ReduceOut *PortStream
	// BcastIn is the broadcast source (nil at the root); BcastOut lists
	// the replication outputs.
	BcastIn  *PortStream
	BcastOut []PortStream
}

// RouterConfig is the complete per-router programming derived from a plan.
type RouterConfig struct {
	Router int
	// Ports[i] is the neighbor router reached through port i.
	Ports []int
	// Trees holds one entry per plan tree.
	Trees []RouterTreeConfig
}

// RouterConfigs lowers the plan to per-router configurations. The result
// is validated internally before being returned: every parent/child
// relation maps to matching ports and every reduction input sits on a
// distinct port. For the paper's forests at most one virtual channel per
// (link direction, traffic class) is ever needed (Lemma 7.8).
func (s *System) RouterConfigs(p *Plan) ([]RouterConfig, error) {
	if p.sys != s {
		return nil, fmt.Errorf("polarfly: plan belongs to a different system")
	}
	cfgs, err := routercfg.Build(p.emb.Topology, p.emb.Forest)
	if err != nil {
		return nil, err
	}
	if err := routercfg.Validate(p.emb.Topology, p.emb.Forest, cfgs); err != nil {
		return nil, fmt.Errorf("polarfly: internal error: %w", err)
	}
	out := make([]RouterConfig, len(cfgs))
	for i, c := range cfgs {
		rc := RouterConfig{Router: c.Router, Ports: append([]int(nil), c.Ports...)}
		for _, tc := range c.Trees {
			rtc := RouterTreeConfig{Tree: tc.Role.String()}
			for _, st := range tc.ReduceIn {
				rtc.ReduceIn = append(rtc.ReduceIn, PortStream{Tree: st.Tree, Port: st.Port, VC: st.VCIndex})
			}
			if tc.ReduceOut != nil {
				rtc.ReduceOut = &PortStream{Tree: tc.ReduceOut.Tree, Port: tc.ReduceOut.Port, VC: tc.ReduceOut.VCIndex}
			}
			if tc.BcastIn != nil {
				rtc.BcastIn = &PortStream{Tree: tc.BcastIn.Tree, Port: tc.BcastIn.Port, VC: tc.BcastIn.VCIndex}
			}
			for _, st := range tc.BcastOut {
				rtc.BcastOut = append(rtc.BcastOut, PortStream{Tree: st.Tree, Port: st.Port, VC: st.VCIndex})
			}
			rc.Trees = append(rc.Trees, rtc)
		}
		out[i] = rc
	}
	return out, nil
}

// ExportPlan writes the plan's tree set as versioned JSON.
func (s *System) ExportPlan(w io.Writer, p *Plan) error {
	if p.sys != s {
		return fmt.Errorf("polarfly: plan belongs to a different system")
	}
	return serialize.EncodeForest(w, p.emb.Forest, p.Method.String(), s.Q())
}

// ExportTopology writes the network's link list as versioned JSON.
func (s *System) ExportTopology(w io.Writer) error {
	return serialize.EncodeTopology(w, s.inst.ER.G, s.Q())
}

// ImportForest reads a forest document previously produced by ExportPlan
// and returns the validated trees in parent-array form, checking that each
// spans this system's topology. Hamiltonian plans are labelled in the
// Singer construction's vertex numbering (isomorphic to the projective
// one, Theorem 6.6), so validation accepts either labelling.
func (s *System) ImportForest(r io.Reader) ([]Tree, string, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, "", err
	}
	forest, kind, err := serialize.DecodeForest(bytes.NewReader(buf.Bytes()), s.inst.ER.G)
	if err != nil {
		var errSinger error
		forest, kind, errSinger = serialize.DecodeForest(bytes.NewReader(buf.Bytes()), s.inst.Singer.Topology())
		if errSinger != nil {
			return nil, "", err
		}
	}
	out := make([]Tree, 0, len(forest))
	for _, t := range forest {
		out = append(out, Tree{Root: t.Root, Parent: append([]int(nil), t.Parent...), Depth: t.MaxDepth()})
	}
	return out, kind, nil
}

// forestFromPublic converts public parent-array trees back to the internal
// representation (validating structure).
func forestFromPublic(ts []Tree) ([]*trees.Tree, error) {
	out := make([]*trees.Tree, 0, len(ts))
	for i, t := range ts {
		tt, err := trees.FromParent(t.Root, t.Parent)
		if err != nil {
			return nil, fmt.Errorf("polarfly: tree %d: %w", i, err)
		}
		out = append(out, tt)
	}
	return out, nil
}

// PlanFromTrees builds an executable plan from externally supplied trees
// (for example re-imported via ImportForest, or produced by other tooling).
// Every tree must be a spanning tree of this system's topology in either
// the projective or the Singer labelling; the bandwidth model is evaluated
// on the supplied forest. The method label records how the plan was made.
func (s *System) PlanFromTrees(method Method, ts []Tree) (*Plan, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("polarfly: empty forest")
	}
	forest, err := forestFromPublic(ts)
	if err != nil {
		return nil, err
	}
	topo := s.inst.ER.G
	valid := true
	for _, t := range forest {
		if t.ValidateSpanning(topo) != nil {
			valid = false
			break
		}
	}
	if !valid {
		topo = s.inst.Singer.Topology()
		for i, t := range forest {
			if err := t.ValidateSpanning(topo); err != nil {
				return nil, fmt.Errorf("polarfly: tree %d spans neither labelling: %w", i, err)
			}
		}
	}
	emb := core.NewEmbedding(core.EmbeddingKind(method), forest, topo)
	p := &Plan{
		Method:             method,
		PerTreeBandwidth:   emb.Model.PerTree,
		AggregateBandwidth: emb.Model.Aggregate,
		OptimalBandwidth:   bandwidth.Optimal(s.Q(), 1.0),
		MaxCongestion:      emb.Model.MaxCongestion,
		MaxDepth:           emb.MaxDepth,
		emb:                emb,
		sys:                s,
	}
	for _, t := range forest {
		p.Trees = append(p.Trees, Tree{Root: t.Root, Parent: append([]int(nil), t.Parent...), Depth: t.MaxDepth()})
	}
	return p, nil
}
