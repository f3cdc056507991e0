package netsim

import (
	"errors"
	"math/rand"
	"testing"

	"polarfly/internal/faults"
	"polarfly/internal/trees"
)

// FuzzRun drives Run over small random connected topologies and random
// forests with a random split, fabric, engine-rate cap, collective op
// and, for Allreduce, a random LinkDown plan. Run must never panic. A
// fault-free run must finish with exact outputs; a faulted run must
// either finish with exact outputs or fail with one of the classified
// outcomes (*ProgressError, ErrAllTreesLost, ErrRecoveryLimit). Every
// finished run conserves flits.
func FuzzRun(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), uint8(30), uint8(1), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(3), uint8(47), uint8(4), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(6), uint8(1), uint8(0), uint8(2), uint8(2), uint8(2), uint8(2), uint8(0))
	f.Add(int64(4), uint8(9), uint8(3), uint8(40), uint8(2), uint8(3), uint8(0), uint8(0), uint8(3))
	f.Add(int64(5), uint8(7), uint8(2), uint8(25), uint8(3), uint8(2), uint8(1), uint8(0), uint8(7))
	f.Add(int64(6), uint8(10), uint8(1), uint8(20), uint8(1), uint8(5), uint8(0), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, mRaw, latRaw, vcRaw, engineRaw, opRaw, faultRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%10 + 2
		k := int(kRaw)%3 + 1
		m := int(mRaw) % 48
		g := randomConnectedGraph(rng, n, 0.3)
		forest, err := trees.RandomForest(g, k, seed)
		if err != nil {
			t.Fatalf("RandomForest on a connected graph: %v", err)
		}
		split := make([]int, k)
		rem := m
		for i := 0; i < k-1; i++ {
			split[i] = rng.Intn(rem + 1)
			rem -= split[i]
		}
		split[k-1] = rem
		spec := Spec{Op: Op(opRaw % 3), Topology: g, Forest: forest, Split: split,
			Inputs: randInputs(n, m, seed)}
		cfg := Config{
			LinkLatency:     int(latRaw)%5 + 1,
			VCDepth:         int(vcRaw)%6 + 1,
			EngineRate:      int(engineRaw) % 3,
			ProgressTimeout: 500,
		}
		if spec.Op == OpAllreduce && faultRaw%2 == 1 {
			var links [][2]int
			for _, tr := range forest {
				for _, e := range tr.Edges() {
					links = append(links, [2]int{e.U, e.V})
				}
			}
			count := 1 + int(faultRaw/2)%3
			plan, err := faults.Generate(links, min(count, n-1), 1, 1+m, seed)
			if err != nil {
				t.Fatalf("faults.Generate: %v", err)
			}
			cfg.Faults = plan
			cfg.DisableRecovery = faultRaw&8 != 0
		}

		res, err := Run(spec, cfg)
		if err != nil {
			var pe *ProgressError
			classified := errors.As(err, &pe) || errors.Is(err, ErrAllTreesLost) ||
				errors.Is(err, ErrRecoveryLimit)
			if cfg.Faults == nil || !classified {
				t.Fatalf("op=%v cfg=%+v split=%v: %v", spec.Op, cfg, split, err)
			}
			return
		}
		if res.FlitsSent != res.DeliveredFlits+res.DroppedFlits {
			t.Fatalf("flit conservation: sent=%d delivered=%d dropped=%d",
				res.FlitsSent, res.DeliveredFlits, res.DroppedFlits)
		}
		want := ExpectedOutput(spec.Inputs)
		off := 0
		for ti, tr := range forest {
			for v, out := range res.Outputs {
				for idx := off; idx < off+split[ti]; idx++ {
					switch {
					case spec.Op == OpReduce && v != tr.Root:
						// Only the root receives a Reduce result.
					case spec.Op == OpBroadcast && out[idx] != spec.Inputs[tr.Root][idx]:
						t.Fatalf("broadcast tree %d node %d element %d: got %d, want %d",
							ti, v, idx, out[idx], spec.Inputs[tr.Root][idx])
					case spec.Op != OpBroadcast && out[idx] != want[idx]:
						t.Fatalf("%v tree %d node %d element %d: got %d, want %d",
							spec.Op, ti, v, idx, out[idx], want[idx])
					}
				}
			}
			off += split[ti]
		}
	})
}
