package netsim

import (
	"math/rand"
	"testing"

	"polarfly/internal/trees"
)

// TestFeatureInteractionMatrix exercises combinations of the simulator's
// orthogonal features — collective op, engine rate cap, tracing, tight
// credits — on a shared multi-tree spec, checking value correctness and
// basic sanity for every combination.
func TestFeatureInteractionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomConnectedGraph(rng, 9, 0.35)
	forest, err := trees.RandomForest(g, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	m := 48
	spec := Spec{Topology: g, Forest: forest, Split: []int{m, m},
		Inputs: randInputs(9, 2*m, 77)}

	for _, op := range []Op{OpAllreduce, OpReduce, OpBroadcast} {
		for _, engine := range []int{0, 1} {
			for _, vc := range []int{1, 6} {
				s := spec
				s.Op = op
				events := 0
				cfg := Config{
					LinkLatency: 2,
					VCDepth:     vc,
					EngineRate:  engine,
					Trace:       func(TraceEvent) { events++ },
				}
				res, err := Run(s, cfg)
				if err != nil {
					t.Fatalf("op=%v engine=%d vc=%d: %v", op, engine, vc, err)
				}
				if events == 0 || res.Cycles <= 0 {
					t.Fatalf("op=%v: degenerate run", op)
				}
				// Value checks per op.
				want := ExpectedOutput(s.Inputs)
				switch op {
				case OpAllreduce:
					for v := range res.Outputs {
						for k := range want {
							if res.Outputs[v][k] != want[k] {
								t.Fatalf("op=%v engine=%d vc=%d: node %d wrong", op, engine, vc, v)
							}
						}
					}
				case OpReduce:
					for ti, tr := range forest {
						off := ti * m
						for k := 0; k < m; k++ {
							if res.Outputs[tr.Root][off+k] != want[off+k] {
								t.Fatalf("op=%v: root %d wrong", op, tr.Root)
							}
						}
					}
				case OpBroadcast:
					for ti, tr := range forest {
						off := ti * m
						src := s.Inputs[tr.Root][off : off+m]
						for v := range res.Outputs {
							for k := 0; k < m; k++ {
								if res.Outputs[v][off+k] != src[k] {
									t.Fatalf("op=%v: node %d wrong", op, v)
								}
							}
						}
					}
				}
			}
		}
	}
}
