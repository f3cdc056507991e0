package core

import (
	"math"
	"testing"

	"polarfly/internal/graph"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

func instance(t *testing.T, q int) *Instance {
	t.Helper()
	in, err := NewInstance(q)
	if err != nil {
		t.Fatalf("NewInstance(%d): %v", q, err)
	}
	return in
}

func TestNewInstance(t *testing.T) {
	in := instance(t, 5)
	if in.N() != 31 || in.Radix() != 6 {
		t.Errorf("N=%d radix=%d", in.N(), in.Radix())
	}
	if in.Layout == nil {
		t.Error("odd q should have a layout")
	}
	even := instance(t, 4)
	if even.Layout != nil {
		t.Error("even q should have no layout")
	}
	if _, err := NewInstance(6); err == nil {
		t.Error("non-prime-power accepted")
	}
}

func TestEmbedKinds(t *testing.T) {
	in := instance(t, 5)
	for _, kind := range []EmbeddingKind{SingleTree, LowDepth, Hamiltonian} {
		e, err := in.Embed(kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		switch kind {
		case SingleTree:
			if len(e.Forest) != 1 || e.Model.Aggregate != 1.0 {
				t.Errorf("single tree: %d trees, agg %f", len(e.Forest), e.Model.Aggregate)
			}
			if e.MaxDepth > 2 {
				t.Errorf("BFS tree depth %d on diameter-2 graph", e.MaxDepth)
			}
		case LowDepth:
			if len(e.Forest) != 5 || e.MaxDepth > 3 || e.Model.MaxCongestion > 2 {
				t.Errorf("low depth: %d trees depth %d congestion %d", len(e.Forest), e.MaxDepth, e.Model.MaxCongestion)
			}
			if e.Model.Aggregate < 2.5-1e-9 {
				t.Errorf("low depth aggregate %f < 2.5", e.Model.Aggregate)
			}
		case Hamiltonian:
			if len(e.Forest) != 3 || e.Model.MaxCongestion != 1 {
				t.Errorf("hamiltonian: %d trees congestion %d", len(e.Forest), e.Model.MaxCongestion)
			}
			if e.MaxDepth != (in.N()-1)/2 {
				t.Errorf("hamiltonian depth %d, want %d", e.MaxDepth, (in.N()-1)/2)
			}
			if math.Abs(e.Model.Aggregate-3.0) > 1e-9 {
				t.Errorf("hamiltonian aggregate %f, want 3", e.Model.Aggregate)
			}
		}
	}
	// Even q: low-depth unavailable, Hamiltonian available.
	even := instance(t, 4)
	if _, err := even.Embed(LowDepth); err == nil {
		t.Error("low depth for even q should error")
	}
	if _, err := even.Embed(Hamiltonian); err != nil {
		t.Errorf("hamiltonian for even q: %v", err)
	}
	if _, err := even.Embed(EmbeddingKind(9)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestEmbeddingKindString(t *testing.T) {
	if SingleTree.String() != "single-tree" || LowDepth.String() != "low-depth" ||
		Hamiltonian.String() != "hamiltonian" || EmbeddingKind(9).String() == "" {
		t.Error("String broken")
	}
}

func TestAllreduceEndToEnd(t *testing.T) {
	in := instance(t, 3)
	inputs := workload.Vectors(in.N(), 200, 500, 3)
	want := netsim.ExpectedOutput(inputs)
	for _, kind := range []EmbeddingKind{SingleTree, LowDepth, Hamiltonian} {
		e, err := in.Embed(kind)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Allreduce(e, inputs, netsim.Config{LinkLatency: 2, VCDepth: 4})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for v := range res.Outputs {
			for k := range want {
				if res.Outputs[v][k] != want[k] {
					t.Fatalf("%v node %d element %d wrong", kind, v, k)
				}
			}
		}
		sum := 0
		for _, s := range res.Split {
			sum += s
		}
		if sum != 200 {
			t.Errorf("%v: split sums to %d", kind, sum)
		}
		if res.ModelCycles <= 0 || res.Cycles <= 0 {
			t.Errorf("%v: degenerate result %+v", kind, res)
		}
	}
	// Input validation.
	e, _ := in.Embed(SingleTree)
	if _, err := in.Allreduce(e, inputs[:3], netsim.DefaultConfig()); err == nil {
		t.Error("wrong input count accepted")
	}
}

func TestVerifyIsomorphismTheorem66(t *testing.T) {
	// Theorem 6.6: S_q ≅ ER_q, checked explicitly for small q.
	for _, q := range []int{2, 3, 4, 5, 7} {
		in := instance(t, q)
		m, ok := in.VerifyIsomorphism()
		if !ok {
			t.Fatalf("q=%d: no isomorphism found between S_q and ER_q", q)
		}
		if !graph.VerifyMapping(in.Singer.Topology(), in.ER.G, m) {
			t.Fatalf("q=%d: returned mapping is invalid", q)
		}
	}
}

func TestTable1(t *testing.T) {
	for _, q := range []int{3, 5, 7, 9} {
		row, err := Table1(q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if row.W != q+1 || row.V1 != q*(q+1)/2 || row.V2 != q*(q-1)/2 {
			t.Errorf("q=%d: counts %+v", q, row)
		}
		if row.QuadricNbrs != [3]int{0, q, 0} {
			t.Errorf("q=%d: quadric neighbors %v", q, row.QuadricNbrs)
		}
		if row.V1Nbrs != [3]int{2, (q - 1) / 2, (q - 1) / 2} {
			t.Errorf("q=%d: V1 neighbors %v", q, row.V1Nbrs)
		}
		if row.V2Nbrs != [3]int{0, (q + 1) / 2, (q + 1) / 2} {
			t.Errorf("q=%d: V2 neighbors %v", q, row.V2Nbrs)
		}
	}
}

func TestFigure2(t *testing.T) {
	d3, err := Figure2(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d3.D, []int{0, 1, 3, 9}; !equalInts(got, want) {
		t.Errorf("q=3 D = %v", got)
	}
	if got, want := d3.Reflections, []int{0, 7, 8, 11}; !equalInts(got, want) {
		t.Errorf("q=3 reflections = %v", got)
	}
	d4, err := Figure2(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d4.D, []int{0, 1, 4, 14, 16}; !equalInts(got, want) {
		t.Errorf("q=4 D = %v", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTable2AndFigure4(t *testing.T) {
	rows, err := Table2(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("Table2(4) has %d rows, want 4", len(rows))
	}
	f4, err := Figure4(4, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Pairs) != 2 || len(f4.Paths) != 2 {
		t.Errorf("Figure4(4): %d pairs", len(f4.Pairs))
	}
	for _, p := range f4.Paths {
		if len(p) != 21 {
			t.Errorf("Figure4(4) path length %d, want 21", len(p))
		}
	}
}

func TestFigure5Sweep(t *testing.T) {
	rows, err := Figure5(3, 32, 13, DefaultMISTries, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		// 5a invariants.
		if r.HamiltonianNorm > 1+1e-9 || r.LowDepthNorm > 1+1e-9 {
			t.Errorf("q=%d: normalized bandwidth above optimal: %+v", r.Q, r)
		}
		if r.Q%2 == 1 && math.Abs(r.HamiltonianNorm-1.0) > 1e-9 {
			t.Errorf("q=%d odd: Hamiltonian should be optimal, got %f", r.Q, r.HamiltonianNorm)
		}
		if r.Q%2 == 1 {
			want := float64(r.Q) / float64(r.Q+1)
			if math.Abs(r.LowDepthNorm-want) > 1e-9 {
				t.Errorf("q=%d: low-depth norm %f, want %f", r.Q, r.LowDepthNorm, want)
			}
		}
		if r.HamTrees != (r.Q+1)/2 {
			t.Errorf("q=%d: %d Hamiltonian trees", r.Q, r.HamTrees)
		}
		// 5b invariants.
		if r.LowDepthDepth != 3 {
			t.Errorf("q=%d: low depth %d", r.Q, r.LowDepthDepth)
		}
		if r.HamiltonianDepth != (r.N-1)/2 {
			t.Errorf("q=%d: ham depth %d", r.Q, r.HamiltonianDepth)
		}
		// Constructive points must match the closed form they verify.
		if r.Constructive && r.Q%2 == 1 {
			if r.LowDepthBW < float64(r.Q)/2-1e-9 {
				t.Errorf("q=%d: constructive BW %f below qB/2", r.Q, r.LowDepthBW)
			}
		}
	}
}

func TestFigure5ConstructiveExtended(t *testing.T) {
	// Build the Algorithm 3 forests constructively for every odd prime
	// power up to 25 and verify Cor. 7.7 exactly: the waterfilled
	// aggregate equals qB/2 (within fp tolerance). Short mode caps at 9.
	hi := 25
	if testing.Short() {
		hi = 9
	}
	rows, err := Figure5(3, hi+1, hi, DefaultMISTries, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	constructivePoints := 0
	for _, r := range rows {
		if !r.Constructive {
			continue
		}
		constructivePoints++
		if want := float64(r.Q) / 2; math.Abs(r.LowDepthBW-want) > 1e-9 {
			t.Errorf("q=%d: constructive low-depth BW %f, want exactly %f", r.Q, r.LowDepthBW, want)
		}
	}
	if constructivePoints < 3 {
		t.Errorf("only %d constructive points", constructivePoints)
	}
}

func TestSimulationComparison(t *testing.T) {
	rows, err := SimulationSweep(5, 600, netsim.Config{LinkLatency: 2, VCDepth: 6}, 17, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var single, low, ham SimRow
	for _, r := range rows {
		switch r.Kind {
		case SingleTree:
			single = r
		case LowDepth:
			low = r
		case Hamiltonian:
			ham = r
		}
	}
	if single.SpeedupVsOne != 1.0 {
		t.Errorf("single speedup %f", single.SpeedupVsOne)
	}
	if low.SpeedupVsOne < 1.5 || ham.SpeedupVsOne < 1.5 {
		t.Errorf("multi-tree speedups too low: low=%f ham=%f", low.SpeedupVsOne, ham.SpeedupVsOne)
	}
	// Even q drops the low-depth row.
	rows, err = SimulationSweep(4, 300, netsim.Config{LinkLatency: 2, VCDepth: 6}, 17, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("even q: %d rows, want 2", len(rows))
	}
}

func TestHostComparison(t *testing.T) {
	rows, err := HostComparison(3, 256, 100, 2, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Time <= 0 || r.Rounds <= 0 {
			t.Errorf("%s: degenerate %+v", r.Algorithm, r)
		}
	}
}

func TestDisjointSweep(t *testing.T) {
	rows, err := DisjointSweep(16, 30, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Success {
			t.Errorf("q=%d: failed (%d of %d)", r.Q, r.Found, r.Target)
		}
		if r.TriesUsed > 30 {
			t.Errorf("q=%d: %d tries", r.Q, r.TriesUsed)
		}
	}
}
