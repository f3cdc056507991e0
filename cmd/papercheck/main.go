// papercheck re-verifies every theorem, lemma, property and published
// value of the paper on freshly constructed instances and prints a
// checklist. It is the one-command audit of this reproduction:
//
//	papercheck            # standard audit (q up to 13, sweeps to 128)
//	papercheck -deep      # heavier instances where applicable
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/er"
	"polarfly/internal/graph"
	"polarfly/internal/netsim"
	"polarfly/internal/numtheory"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

var failures int

func check(name string, ok bool, detail string) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		failures++
	}
	fmt.Printf("[%s] %-58s %s\n", mark, name, detail)
}

func main() {
	deep := flag.Bool("deep", false, "use larger instances")
	flag.Parse()

	oddQs := []int{3, 5, 7, 9, 11}
	sweepHi := 64
	if *deep {
		oddQs = append(oddQs, 13, 17, 19, 23, 25)
		sweepHi = 127
	}

	// --- §6.1: construction and Theorem 6.1 -------------------------------
	for _, q := range []int{3, 4, 5, 7, 8, 9} {
		pg, err := er.New(q)
		if err != nil {
			check(fmt.Sprintf("ER_%d construction", q), false, err.Error())
			continue
		}
		okN := pg.N() == q*q+q+1
		okM := pg.G.M() == q*(q+1)*(q+1)/2
		okDiam := pg.G.Diameter() == 2
		okPaths := pg.G.HasUniqueTwoPaths()
		check(fmt.Sprintf("Thm 6.1 / §6.1 for q=%d", q), okN && okM && okDiam && okPaths,
			fmt.Sprintf("N=%d M=%d diam=%d unique2paths=%v", pg.N(), pg.G.M(), pg.G.Diameter(), okPaths))
	}

	// --- Table 1 -----------------------------------------------------------
	for _, q := range oddQs {
		row, err := core.Table1(q)
		ok := err == nil &&
			row.W == q+1 && row.V1 == q*(q+1)/2 && row.V2 == q*(q-1)/2 &&
			row.QuadricNbrs == [3]int{0, q, 0} &&
			row.V1Nbrs == [3]int{2, (q - 1) / 2, (q - 1) / 2} &&
			row.V2Nbrs == [3]int{0, (q + 1) / 2, (q + 1) / 2}
		check(fmt.Sprintf("Table 1 for q=%d", q), ok, fmt.Sprintf("|W|=%d |V1|=%d |V2|=%d", row.W, row.V1, row.V2))
	}

	// --- Algorithm 2 + Properties 1–3 + Lemma 7.2 / Cor 7.3 ---------------
	for _, q := range oddQs {
		pg, _ := er.New(q)
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			check(fmt.Sprintf("Alg 2 layout q=%d", q), false, err.Error())
			continue
		}
		ok := l.NumClusters() == q
		for _, c := range l.Clusters {
			ok = ok && len(c) == q
		}
		ok = ok && l.EdgesToQuadricCluster(0) == q+1
		if q > 2 {
			ok = ok && l.EdgesBetweenClusters(0, 1) == q-2
		}
		check(fmt.Sprintf("Alg 2 + Properties 1-3 q=%d", q), ok,
			fmt.Sprintf("%d clusters, W↔C=%d, C↔C=%d", l.NumClusters(), l.EdgesToQuadricCluster(0), l.EdgesBetweenClusters(0, 1)))
	}

	// --- Figure 2: exact published values ---------------------------------
	d3, err3 := singer.DifferenceSet(3)
	check("Fig 2a: D(q=3) = {0,1,3,9}", err3 == nil && equalInts(d3, []int{0, 1, 3, 9}), fmt.Sprint(d3))
	d4, err4 := singer.DifferenceSet(4)
	check("Fig 2b: D(q=4) = {0,1,4,14,16}", err4 == nil && equalInts(d4, []int{0, 1, 4, 14, 16}), fmt.Sprint(d4))
	s3, _ := singer.New(3)
	check("Fig 2a: reflections(q=3) = {0,7,8,11}", equalInts(s3.ReflectionPoints(), []int{0, 7, 8, 11}),
		fmt.Sprint(s3.ReflectionPoints()))
	s4, _ := singer.New(4)
	check("Fig 2b: reflections(q=4) = {0,2,7,8,11}", equalInts(s4.ReflectionPoints(), []int{0, 2, 7, 8, 11}),
		fmt.Sprint(s4.ReflectionPoints()))

	// --- Definition 6.2 sweep ---------------------------------------------
	dsOK := true
	worstQ := -1
	for _, q := range numtheory.PrimePowersUpTo(2, 32) {
		d, err := singer.DifferenceSet(q)
		if err != nil || !singer.IsDifferenceSet(d, q*q+q+1) {
			dsOK = false
			worstQ = q
		}
	}
	check("Def 6.2: difference-set property, q ≤ 32", dsOK, failNote(dsOK, worstQ))

	// --- Theorem 6.6: explicit isomorphism ---------------------------------
	for _, q := range []int{2, 3, 4, 5} {
		inst, _ := core.NewInstance(q)
		m, ok := inst.VerifyIsomorphism()
		ok = ok && graph.VerifyMapping(inst.Singer.Topology(), inst.ER.G, m)
		check(fmt.Sprintf("Thm 6.6: S_%d ≅ ER_%d (explicit mapping)", q, q), ok, "")
	}

	// --- Table 2 ------------------------------------------------------------
	t2, _ := core.Table2(4)
	t2ok := len(t2) == 4 &&
		t2[0] == (singer.MaximalPathInfo{D0: 0, D1: 14, GCD: 7, K: 3, Start: 7, End: 0}) &&
		t2[1] == (singer.MaximalPathInfo{D0: 1, D1: 4, GCD: 3, K: 7, Start: 2, End: 11}) &&
		t2[2] == (singer.MaximalPathInfo{D0: 1, D1: 16, GCD: 3, K: 7, Start: 8, End: 11}) &&
		t2[3] == (singer.MaximalPathInfo{D0: 4, D1: 16, GCD: 3, K: 7, Start: 8, End: 2})
	check("Table 2: non-Hamiltonian paths of S_4 (exact)", t2ok, fmt.Sprintf("%d rows", len(t2)))

	// --- Theorem 7.13 / Cor 7.15 / Cor 7.20 --------------------------------
	for _, q := range []int{4, 5, 8, 9} {
		s, _ := singer.New(q)
		ok := true
		for _, p := range s.AllPairs() {
			if s.PathLen(p) != s.N/numtheory.GCD(p.D0-p.D1, s.N) {
				ok = false
			}
			path := s.MaximalPath(p)
			if len(path) != s.PathLen(p) || path[0] != s.ReflectionOf(p.D1) {
				ok = false
			}
		}
		phi := numtheory.Totient(s.N)
		ok = ok && len(s.HamiltonianPairs()) == phi/2
		check(fmt.Sprintf("Thm 7.13/Cor 7.15/Cor 7.20 q=%d", q), ok,
			fmt.Sprintf("%d Hamiltonian pairs = φ(%d)/2", len(s.HamiltonianPairs()), s.N))
	}

	// --- §7.1: Theorems 7.4–7.6, Lemma 7.8, Cor 7.7 ------------------------
	for _, q := range oddQs {
		inst, _ := core.NewInstance(q)
		e, err := inst.Embed(core.LowDepth)
		if err != nil {
			check(fmt.Sprintf("Alg 3 q=%d", q), false, err.Error())
			continue
		}
		ok := len(e.Forest) == q
		for _, tr := range e.Forest {
			ok = ok && tr.ValidateSpanning(inst.ER.G) == nil && tr.MaxDepth() <= 3
		}
		ok = ok && e.Model.MaxCongestion <= 2
		ok = ok && trees.OpposedReductionFlows(e.Forest) == nil
		ok = ok && e.Model.Aggregate >= float64(q)/2-1e-9
		check(fmt.Sprintf("Thm 7.4-7.6 + Lemma 7.8 + Cor 7.7 q=%d", q), ok,
			fmt.Sprintf("depth≤3 cong=%d BW=%.2f ≥ %.1f", e.Model.MaxCongestion, e.Model.Aggregate, float64(q)/2))
	}

	// --- §7.2: Theorem 7.19 + Lemma 7.17 ------------------------------------
	for _, q := range oddQs {
		inst, _ := core.NewInstance(q)
		e, err := inst.Embed(core.Hamiltonian)
		if err != nil {
			check(fmt.Sprintf("Hamiltonian forest q=%d", q), false, err.Error())
			continue
		}
		ok := len(e.Forest) == (q+1)/2 &&
			e.Model.MaxCongestion == 1 &&
			math.Abs(e.Model.Aggregate-bandwidth.Optimal(q, 1.0)) < 1e-9 &&
			e.MaxDepth == (inst.N()-1)/2
		check(fmt.Sprintf("Thm 7.19 + Lemma 7.17 q=%d", q), ok,
			fmt.Sprintf("%d disjoint trees, BW=%.1f=optimal, depth=%d", len(e.Forest), e.Model.Aggregate, e.MaxDepth))
	}

	// --- §7.3: disjoint sweep -----------------------------------------------
	sweep, err := core.DisjointSweep(sweepHi, 30, core.DefaultSeed)
	sweepOK := err == nil
	worst := 0
	for _, r := range sweep {
		if !r.Success {
			sweepOK = false
		}
		if r.TriesUsed > worst {
			worst = r.TriesUsed
		}
	}
	check(fmt.Sprintf("§7.3: ⌊(q+1)/2⌋ disjoint Hamiltonians, q ≤ %d, ≤30 tries", sweepHi),
		sweepOK, fmt.Sprintf("worst case %d tries", worst))

	// --- End-to-end: simulator agrees with the model ------------------------
	rows, err := core.SimulationSweep(5, 2000, netsim.Config{LinkLatency: 3, VCDepth: 6}, core.DefaultSeed, 1, nil, nil)
	simOK := err == nil
	detail := ""
	for _, r := range rows {
		if r.Kind == core.LowDepth {
			simOK = simOK && r.MeasuredBW > 0.85*r.ModelBW
			detail = fmt.Sprintf("low-depth measured %.2f of model %.2f", r.MeasuredBW, r.ModelBW)
		}
	}
	check("End-to-end: cycle simulator ≈ Algorithm 1 model", simOK, detail)

	fmt.Println()
	if failures > 0 {
		fmt.Printf("papercheck: %d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("papercheck: all checks passed — the reproduction is faithful")
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

func failNote(ok bool, q int) string {
	if ok {
		return ""
	}
	return fmt.Sprintf("first failure at q=%d", q)
}
