// Package faults defines deterministic fault plans for the cycle-accurate
// simulator: which links fail (permanently, transiently, or in repeating
// storm bursts), which links run at degraded bandwidth, which routers
// fail outright (taking every incident link atomically), and which
// router reduction engines stall, each anchored to an exact simulated
// cycle. A plan is pure data — JSON
// (de)serializable and independent of any simulator state — so the same
// plan replayed against the same spec and seed reproduces the run
// bit-for-bit. Randomized plans come from an explicitly seeded stdlib
// PRNG, never the global source, matching the repository's determinism
// contract (the nondeterminism repolint analyzer enforces it).
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Kind classifies one fault.
type Kind int

const (
	// LinkDown permanently fails an undirected link at cycle At: both
	// directions stop delivering and every in-flight flit is dropped.
	LinkDown Kind = iota
	// LinkTransient fails the link during the window [At, Until): the
	// link heals afterwards, but any stream that lost flits in the window
	// is broken (the receiver discards out-of-sequence flits), so
	// detection and recovery proceed exactly as for LinkDown and the
	// link is quarantined from the recovered embedding.
	LinkTransient
	// LinkDegraded caps the link at Bandwidth flits per cycle (a token
	// bucket) during [At, Until); Until 0 means for the rest of the run.
	// No flits are lost, so no recovery triggers — throughput sags.
	LinkDegraded
	// EngineStall freezes router Node's reduction engine during
	// [At, Until): the node neither combines child flits nor computes
	// root results. Nothing is lost; the pipeline back-pressures.
	EngineStall
	// RouterDown permanently fails router Node at cycle At: every link
	// incident to the node fails atomically (a correlated fault domain),
	// in-flight flits on all of them drop, and the node's engine stops.
	// On a PolarFly every spanning tree touches every node, so a
	// router-down mid-run kills all trees unless the streams crossing the
	// node's links already completed.
	RouterDown
	// LinkStorm is a repeating transient: the link fails during
	// [At + i·Period, Until + i·Period) for i in [0, Repeat), healing
	// between windows. Each window that drops flits breaks the crossing
	// streams exactly as LinkTransient does, so a storm landing while a
	// recovery is still re-issuing forces a further (nested) recovery.
	LinkStorm
)

// kindNames is the JSON vocabulary; order must match the Kind constants
// and is append-only: committed plans decode forever.
var kindNames = [...]string{"link-down", "link-transient", "link-degraded", "engine-stall", "router-down", "link-storm"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON renders the kind as its stable string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < 0 || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("faults: unknown kind %d", int(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON accepts the string names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("faults: kind must be a string: %w", err)
	}
	for i, name := range kindNames {
		if s == name {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("faults: unknown fault kind %q", s)
}

// Fault is one scheduled fault. Link faults identify the undirected link
// (U, V); EngineStall identifies the router Node.
type Fault struct {
	Kind Kind `json:"kind"`
	// U and V are the link endpoints for link faults (canonicalised so
	// U < V by Validate); unused for EngineStall.
	U int `json:"u,omitempty"`
	V int `json:"v,omitempty"`
	// Node is the stalled router for EngineStall.
	Node int `json:"node,omitempty"`
	// At is the activation cycle (≥ 1; the simulator starts at cycle 1).
	At int `json:"at"`
	// Until ends the window for LinkTransient / LinkDegraded /
	// EngineStall (exclusive); 0 means the fault lasts forever.
	// LinkDown ignores it.
	Until int `json:"until,omitempty"`
	// Bandwidth is the LinkDegraded cap in flits/cycle (0 < Bandwidth < 1,
	// below the healthy link's one flit per cycle).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Period is the LinkStorm window-to-window stride in cycles; it must
	// exceed the window length Until-At so the link heals between bursts.
	Period int `json:"period,omitempty"`
	// Repeat is the LinkStorm window count (≥ 1).
	Repeat int `json:"repeat,omitempty"`
}

func (f Fault) String() string {
	switch f.Kind {
	case EngineStall:
		return fmt.Sprintf("%v node %d @[%d,%d)", f.Kind, f.Node, f.At, f.Until)
	case RouterDown:
		return fmt.Sprintf("%v node %d @%d", f.Kind, f.Node, f.At)
	case LinkDegraded:
		return fmt.Sprintf("%v %d-%d to %.3g flits/cycle @[%d,%d)", f.Kind, f.U, f.V, f.Bandwidth, f.At, f.Until)
	case LinkTransient:
		return fmt.Sprintf("%v %d-%d @[%d,%d)", f.Kind, f.U, f.V, f.At, f.Until)
	case LinkStorm:
		return fmt.Sprintf("%v %d-%d @[%d,%d)×%d/%d", f.Kind, f.U, f.V, f.At, f.Until, f.Repeat, f.Period)
	default:
		return fmt.Sprintf("%v %d-%d @%d", f.Kind, f.U, f.V, f.At)
	}
}

// IsLink reports whether the fault targets a link (rather than a router).
func (f Fault) IsLink() bool { return f.Kind != EngineStall && f.Kind != RouterDown }

// Lossy reports whether the kind drops flits outright and can therefore
// trip timeout detection and trigger a recovery round. Degraded links
// and engine stalls slow traffic but never lose it.
func (k Kind) Lossy() bool {
	switch k {
	case LinkDown, LinkTransient, RouterDown, LinkStorm:
		return true
	case LinkDegraded, EngineStall:
		return false
	default:
		return false
	}
}

// Plan is an ordered list of faults. Order is activation order for
// same-cycle faults, so identical plans replay identically.
type Plan struct {
	Faults []Fault `json:"faults"`
}

// planFile is the versioned on-disk schema.
type planFile struct {
	Version int     `json:"version"`
	Faults  []Fault `json:"faults"`
}

// planVersion is the current JSON schema version.
const planVersion = 1

// Validate checks every fault and canonicalises link endpoints to U < V.
func (p *Plan) Validate() error {
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Kind < 0 || int(f.Kind) >= len(kindNames) {
			return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
		}
		if f.At < 1 {
			return fmt.Errorf("faults: fault %d: activation cycle %d, must be ≥ 1", i, f.At)
		}
		if f.IsLink() {
			if f.U < 0 || f.V < 0 {
				return fmt.Errorf("faults: fault %d: negative link endpoint (%d, %d)", i, f.U, f.V)
			}
			if f.U == f.V {
				return fmt.Errorf("faults: fault %d: self-loop link %d-%d", i, f.U, f.V)
			}
			if f.U > f.V {
				f.U, f.V = f.V, f.U
			}
		} else if f.Node < 0 {
			return fmt.Errorf("faults: fault %d: negative node %d", i, f.Node)
		}
		switch f.Kind {
		case LinkDown:
			if f.Until != 0 {
				return fmt.Errorf("faults: fault %d: link-down is permanent; until must be 0, got %d", i, f.Until)
			}
		case RouterDown:
			if f.Until != 0 {
				return fmt.Errorf("faults: fault %d: router-down is permanent; until must be 0, got %d", i, f.Until)
			}
		case LinkTransient, LinkDegraded, EngineStall:
			if f.Until != 0 && f.Until <= f.At {
				return fmt.Errorf("faults: fault %d: window [%d,%d) is empty", i, f.At, f.Until)
			}
		case LinkStorm:
			if f.Until <= f.At {
				return fmt.Errorf("faults: fault %d: link-storm window [%d,%d) is empty", i, f.At, f.Until)
			}
			if f.Repeat < 1 {
				return fmt.Errorf("faults: fault %d: link-storm repeat %d, must be ≥ 1", i, f.Repeat)
			}
			if f.Period <= f.Until-f.At {
				return fmt.Errorf("faults: fault %d: link-storm period %d must exceed the window length %d so the link heals between bursts", i, f.Period, f.Until-f.At)
			}
		}
		if f.Kind != LinkStorm && (f.Period != 0 || f.Repeat != 0) {
			return fmt.Errorf("faults: fault %d: period/repeat only apply to link-storm", i)
		}
		if f.Kind == LinkDegraded {
			// Links carry one flit per cycle, so a cap of 1 or more
			// would meter nothing.
			if !(f.Bandwidth > 0 && f.Bandwidth < 1) {
				return fmt.Errorf("faults: fault %d: degraded bandwidth %g, must be in (0, 1) flits/cycle", i, f.Bandwidth)
			}
			//lint:ignore floatcmp exact-zero sentinel: the JSON zero value means "field absent", not a tiny bandwidth
		} else if f.Bandwidth != 0 {
			return fmt.Errorf("faults: fault %d: bandwidth only applies to link-degraded", i)
		}
	}
	return nil
}

// FailedLinks returns the undirected links whose failure can kill trees
// (LinkDown, LinkTransient and LinkStorm; degraded links lose no flits),
// sorted and deduplicated — the input for core.Degrade's analytical
// prediction. RouterDown faults are not expanded here: the incident
// links depend on the topology, which a pure-data plan does not know.
// Use FailedRouters plus the topology's adjacency for those.
func (p *Plan) FailedLinks() [][2]int {
	seen := make(map[[2]int]bool)
	for _, f := range p.Faults {
		if f.Kind != LinkDown && f.Kind != LinkTransient && f.Kind != LinkStorm {
			continue
		}
		u, v := f.U, f.V
		if u > v {
			u, v = v, u
		}
		seen[[2]int{u, v}] = true
	}
	out := make([][2]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// FailedRouters returns the RouterDown node set, sorted and deduplicated.
// The caller expands each node to its incident links with the topology's
// adjacency to feed core.Degrade.
func (p *Plan) FailedRouters() []int {
	seen := make(map[int]bool)
	for _, f := range p.Faults {
		if f.Kind == RouterDown {
			seen[f.Node] = true
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// WriteJSON writes the plan in the versioned schema, validated first.
func (p *Plan) WriteJSON(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(planFile{Version: planVersion, Faults: p.Faults})
}

// DecodePlan reads and validates a plan written by WriteJSON.
func DecodePlan(r io.Reader) (*Plan, error) {
	var pf planFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&pf); err != nil {
		return nil, fmt.Errorf("faults: decoding plan: %w", err)
	}
	if pf.Version != planVersion {
		return nil, fmt.Errorf("faults: plan version %d, want %d", pf.Version, planVersion)
	}
	p := &Plan{Faults: pf.Faults}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Generate builds a random plan of `count` LinkDown faults drawn without
// replacement from the candidate links, each at a uniform cycle in
// [minAt, maxAt]. The candidates are canonicalised and sorted before
// sampling so the same seed yields the same plan regardless of input
// order. Randomness comes from an explicitly seeded stdlib source.
func Generate(candidates [][2]int, count, minAt, maxAt int, seed int64) (*Plan, error) {
	if count < 1 {
		return nil, fmt.Errorf("faults: generate count %d, must be ≥ 1", count)
	}
	if minAt < 1 || maxAt < minAt {
		return nil, fmt.Errorf("faults: generate cycle window [%d,%d] invalid", minAt, maxAt)
	}
	canon := make(map[[2]int]bool, len(candidates))
	for _, l := range candidates {
		u, v := l[0], l[1]
		if u == v || u < 0 || v < 0 {
			return nil, fmt.Errorf("faults: invalid candidate link %d-%d", u, v)
		}
		if u > v {
			u, v = v, u
		}
		canon[[2]int{u, v}] = true
	}
	links := make([][2]int, 0, len(canon))
	for l := range canon {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	if count > len(links) {
		return nil, fmt.Errorf("faults: %d faults requested from %d candidate links", count, len(links))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(links))[:count]
	sort.Ints(perm) // plan order follows link order, not draw order
	p := &Plan{}
	for _, idx := range perm {
		l := links[idx]
		p.Faults = append(p.Faults, Fault{
			Kind: LinkDown, U: l[0], V: l[1],
			At: minAt + rng.Intn(maxAt-minAt+1),
		})
	}
	return p, p.Validate()
}

// GenerateCorrelated builds a random plan of `groups` correlated fault
// groups: each group draws `groupSize` distinct links (without
// replacement across the whole plan) and fails them all atomically at
// one shared cycle in [minAt, maxAt] — the grouped-multi-link fault
// domain (a shared conduit or power feed taking several links at once).
// Candidates are canonicalised and sorted before sampling, so the same
// seed yields the same plan regardless of input order.
func GenerateCorrelated(candidates [][2]int, groups, groupSize, minAt, maxAt int, seed int64) (*Plan, error) {
	if groups < 1 || groupSize < 1 {
		return nil, fmt.Errorf("faults: generate %d groups of %d, both must be ≥ 1", groups, groupSize)
	}
	if minAt < 1 || maxAt < minAt {
		return nil, fmt.Errorf("faults: generate cycle window [%d,%d] invalid", minAt, maxAt)
	}
	canon := make(map[[2]int]bool, len(candidates))
	for _, l := range candidates {
		u, v := l[0], l[1]
		if u == v || u < 0 || v < 0 {
			return nil, fmt.Errorf("faults: invalid candidate link %d-%d", u, v)
		}
		if u > v {
			u, v = v, u
		}
		canon[[2]int{u, v}] = true
	}
	links := make([][2]int, 0, len(canon))
	for l := range canon {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	if groups*groupSize > len(links) {
		return nil, fmt.Errorf("faults: %d×%d correlated faults requested from %d candidate links", groups, groupSize, len(links))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(links))
	p := &Plan{}
	for g := 0; g < groups; g++ {
		at := minAt + rng.Intn(maxAt-minAt+1)
		idxs := append([]int(nil), perm[g*groupSize:(g+1)*groupSize]...)
		sort.Ints(idxs) // group order follows link order, not draw order
		for _, idx := range idxs {
			l := links[idx]
			p.Faults = append(p.Faults, Fault{Kind: LinkDown, U: l[0], V: l[1], At: at})
		}
	}
	return p, p.Validate()
}
