// figures regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	figures -exp table1          # Table 1 (vertex classes), q sweep
//	figures -exp fig1            # Figure 1 (layout, q=11 by default)
//	figures -exp fig2            # Figure 2 (Singer sets for q=3 and q=4)
//	figures -exp table2          # Table 2 (non-Hamiltonian paths of S_4)
//	figures -exp fig4            # Figure 4 (edge-disjoint Hamiltonians, q=3,4)
//	figures -exp fig5a           # Figure 5a (normalized bandwidth sweep)
//	figures -exp fig5b           # Figure 5b (tree depth sweep)
//	figures -exp mis             # §7.3 disjoint-Hamiltonian verification sweep
//	figures -exp ablation        # design-decision ablations (§3, §4.4, §5.1)
//	figures -exp overlap         # training-step compute/comm overlap
//	figures -exp steadystate     # sustained bandwidth with fill factored out
//	figures -exp topologies      # PolarFly vs comparable tori (§1.2/§1.3)
//	figures -exp sim             # headline simulation comparison
//	figures -exp all             # everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table1|fig1|fig2|table2|fig4|fig5a|fig5b|mis|ablation|overlap|steadystate|topologies|sim|all")
	q := flag.Int("q", 11, "q for fig1/sim")
	m := flag.Int("m", 4096, "vector length for sim")
	hiRadix := flag.Int("hi-radix", 130, "sweep upper radix for fig5a/fig5b/mis")
	constructive := flag.Int("constructive", 13, "build forests constructively up to this q in fig5a")
	csv := flag.Bool("csv", false, "emit sweep experiments (fig5a, fig5b, mis) as CSV")
	plot := flag.Bool("plot", false, "render fig5a/fig5b as ASCII charts (the paper's figure shapes)")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Printf("%4s %6s %8s %8s | per-vertex neighbor counts (W,V1,V2)\n", "q", "|W|", "|V1|", "|V2|")
		for _, qq := range []int{3, 5, 7, 9, 11, 13} {
			row, err := core.Table1(qq)
			if err != nil {
				return err
			}
			fmt.Printf("%4d %6d %8d %8d | W:%v V1:%v V2:%v\n",
				qq, row.W, row.V1, row.V2, row.QuadricNbrs, row.V1Nbrs, row.V2Nbrs)
		}
		return nil
	})

	run("fig1", func() error {
		inst, err := core.NewInstance(*q)
		if err != nil {
			return err
		}
		if inst.Layout == nil {
			return fmt.Errorf("fig1 needs odd q, got %d", *q)
		}
		l := inst.Layout
		fmt.Printf("PolarFly layout, q=%d: starter quadric %d, %d clusters of %d vertices\n",
			*q, l.Starter, l.NumClusters(), *q)
		fmt.Printf("edges W↔C_i: %d each (Property 2); edges C_i↔C_j: %d each (Property 3)\n",
			l.EdgesToQuadricCluster(0), l.EdgesBetweenClusters(0, 1))
		for ci := range l.Clusters {
			fmt.Printf("C_%-2d center=%-4d non-starter quadric w_%d=%d\n", ci, l.Centers[ci], ci, l.QuadricOfCenter[ci])
		}
		return nil
	})

	run("fig2", func() error {
		for _, qq := range []int{3, 4} {
			d, err := core.Figure2(qq)
			if err != nil {
				return err
			}
			fmt.Printf("q=%d N=%d: D=%v  reflection points=%v\n", qq, d.N, d.D, d.Reflections)
		}
		return nil
	})

	run("table2", func() error {
		rows, err := core.Table2(4)
		if err != nil {
			return err
		}
		fmt.Printf("%4s %4s %6s %4s %6s %6s\n", "d0", "d1", "gcd", "k", "b_1", "b_k")
		for _, r := range rows {
			fmt.Printf("%4d %4d %6d %4d %6d %6d\n", r.D0, r.D1, r.GCD, r.K, r.Start, r.End)
		}
		return nil
	})

	run("fig4", func() error {
		for _, qq := range []int{3, 4} {
			d, err := core.Figure4(qq, core.DefaultMISTries, core.DefaultSeed)
			if err != nil {
				return err
			}
			fmt.Printf("q=%d: %d edge-disjoint Hamiltonian paths\n", qq, len(d.Pairs))
			for i, p := range d.Pairs {
				fmt.Printf("  colours (%d,%d): %v\n", p.D0, p.D1, d.Paths[i])
			}
		}
		return nil
	})

	fig5 := func(series string) func() error {
		return func() error {
			rows, err := core.Figure5(3, *hiRadix, *constructive, core.DefaultMISTries, core.DefaultSeed)
			if err != nil {
				return err
			}
			if *plot {
				ticks := make([]string, len(rows))
				low := make([]float64, len(rows))
				ham := make([]float64, len(rows))
				for i, r := range rows {
					ticks[i] = fmt.Sprint(r.Radix)
					if series == "a" {
						low[i], ham[i] = r.LowDepthNorm, r.HamiltonianNorm
					} else {
						low[i], ham[i] = float64(r.LowDepthDepth), float64(r.HamiltonianDepth)
					}
				}
				c := &report.Chart{
					XLabel: "radix q+1",
					XTicks: ticks,
					Series: []report.Series{
						{Name: "low-depth", Values: low, Marker: 'o'},
						{Name: "hamiltonian", Values: ham, Marker: '+'},
					},
					Height: 14,
				}
				if series == "a" {
					c.Title = "Figure 5a: Allreduce bandwidth normalized to optimal"
					c.YMax = 1.05
				} else {
					c.Title = "Figure 5b: tree depth (latency proxy)"
				}
				fmt.Print(c.Render())
				return nil
			}
			switch {
			case series == "a" && *csv:
				fmt.Println("q,radix,optimal_bw,lowdepth_norm,hamiltonian_norm,constructive")
				for _, r := range rows {
					fmt.Printf("%d,%d,%g,%g,%g,%v\n", r.Q, r.Radix, r.OptimalBW, r.LowDepthNorm, r.HamiltonianNorm, r.Constructive)
				}
			case series == "a":
				fmt.Printf("%4s %6s %10s %12s %12s %12s\n", "q", "radix", "optimal B", "lowdepth/opt", "hamilton/opt", "constructive")
				for _, r := range rows {
					fmt.Printf("%4d %6d %10.1f %12.4f %12.4f %12v\n",
						r.Q, r.Radix, r.OptimalBW, r.LowDepthNorm, r.HamiltonianNorm, r.Constructive)
				}
			case *csv:
				fmt.Println("q,radix,n,lowdepth_depth,hamiltonian_depth")
				for _, r := range rows {
					fmt.Printf("%d,%d,%d,%d,%d\n", r.Q, r.Radix, r.N, r.LowDepthDepth, r.HamiltonianDepth)
				}
			default:
				fmt.Printf("%4s %6s %8s %14s %16s\n", "q", "radix", "N", "lowdepth depth", "hamilton depth")
				for _, r := range rows {
					fmt.Printf("%4d %6d %8d %14d %16d\n", r.Q, r.Radix, r.N, r.LowDepthDepth, r.HamiltonianDepth)
				}
			}
			return nil
		}
	}
	run("fig5a", fig5("a"))
	run("fig5b", fig5("b"))

	run("mis", func() error {
		rows, err := core.DisjointSweep(*hiRadix-1, core.DefaultMISTries, core.DefaultSeed)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Println("q,target,found,tries,success")
			for _, r := range rows {
				fmt.Printf("%d,%d,%d,%d,%v\n", r.Q, r.Target, r.Found, r.TriesUsed, r.Success)
			}
			return nil
		}
		fmt.Printf("%4s %8s %8s %8s %8s\n", "q", "target", "found", "tries", "ok")
		for _, r := range rows {
			fmt.Printf("%4d %8d %8d %8d %8v\n", r.Q, r.Target, r.Found, r.TriesUsed, r.Success)
		}
		return nil
	})

	run("ablation", func() error {
		fmt.Println("-- random vs coordinated forest (§3) --")
		fmt.Printf("%4s %4s %12s %10s %10s %10s %12s\n",
			"q", "k", "coord BW", "rand BW", "coord C", "rand C", "rand ports")
		for _, qq := range []int{5, 7, 9, 11, 13} {
			row, err := core.RandomForestComparison(qq, core.DefaultSeed)
			if err != nil {
				return err
			}
			fmt.Printf("%4d %4d %12.3f %10.3f %10d %10d %12d\n",
				row.Q, row.K, row.CoordinatedBW, row.RandomBW,
				row.CoordinatedCong, row.RandomCong, row.PortStreamsRandom)
		}

		fmt.Println("\n-- VC depth sweep (credit throttling, §1.2), q=5 m=800 latency=8 --")
		rows, err := core.VCDepthSweep(5, 800, 8, []int{1, 2, 4, 8, 16}, core.LowDepth, core.DefaultSeed)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %8s %12s\n", "VCdepth", "cycles", "elem/cycle")
		for _, r := range rows {
			fmt.Printf("%8d %8d %12.3f\n", r.Param, r.Cycles, r.MeasuredBW)
		}

		fmt.Println("\n-- reduction engine rate sweep (§5.1), q=5 m=800 --")
		rows, err = core.EngineRateSweep(5, 800, 3, []int{1, 2, 3, 5, 0}, core.LowDepth, core.DefaultSeed)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %8s %12s\n", "rate", "cycles", "elem/cycle")
		for _, r := range rows {
			label := fmt.Sprintf("%d", r.Param)
			if r.Param == 0 {
				label = "inf"
			}
			fmt.Printf("%8s %8d %12.3f\n", label, r.Cycles, r.MeasuredBW)
		}

		fmt.Println("\n-- depth-2 vs depth-3 trees (the extra-hop decision) --")
		fmt.Printf("%4s %12s %12s %10s %10s\n", "q", "depth2 BW", "depth3 BW", "d2 cong", "d3 cong")
		for _, qq := range []int{5, 7, 9, 11, 13} {
			row, err := core.DepthTwoComparison(qq)
			if err != nil {
				return err
			}
			fmt.Printf("%4d %12.3f %12.3f %10d %10d\n",
				row.Q, row.DepthTwoBW, row.DepthThreeBW, row.DepthTwoCong, row.DepthThreeCong)
		}

		fmt.Println("\n-- SHARP-style logical trees vs physical embedding (§4.4), q=9 --")
		fmt.Printf("%-12s %10s %12s %14s\n", "shape", "max load", "bandwidth", "phys. depth")
		lt, err := core.LogicalTreeComparison(9)
		if err != nil {
			return err
		}
		for _, r := range lt {
			fmt.Printf("%-12s %10d %12.3f %14d\n", r.Shape, r.MaxLoad, r.Bandwidth, r.PhysicalDepth)
		}
		fmt.Printf("%-12s %10d %12.3f %14d   (reference)\n", "physical", 1, 1.0, 2)

		fmt.Println("\n-- single-link failure tolerance --")
		fmt.Printf("%-12s %8s %12s %14s\n", "embedding", "trees", "worst lost", "remaining BW")
		ft, err := core.FailureTolerance(9)
		if err != nil {
			return err
		}
		for _, r := range ft {
			fmt.Printf("%-12v %8d %12d %14.2f\n", r.Kind, r.Trees, r.WorstCaseLost, r.WorstCaseRemainingBW)
		}

		fmt.Println("\n-- router resource requirements (§5.1), q=9 --")
		res, err := core.ResourceComparison(9)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %10s %14s %14s\n", "embedding", "VCs/link", "reduce/port", "states/router")
		for _, r := range res {
			fmt.Printf("%-12v %10d %14d %14d\n", r.Kind, r.VCsPerLink, r.ReductionsPerPort, r.MaxStatesPerRouter)
		}
		return nil
	})

	run("overlap", func() error {
		sizes := []int{12288, 7128, 7128, 7128}
		fmt.Printf("training-step overlap, q=%d, %d gradient tensors, 600 compute cycles/layer\n", *q, len(sizes))
		fmt.Printf("%-12s %10s %10s %12s %14s\n", "embedding", "compute", "step", "exposed", "per-layer sync")
		inst, err := core.NewInstance(*q)
		if err != nil {
			return err
		}
		kinds := []core.EmbeddingKind{core.SingleTree, core.Hamiltonian}
		if *q%2 == 1 {
			kinds = []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}
		}
		for _, kind := range kinds {
			r, err := core.OverlapStep(inst, kind, sizes, 600, netsim.Config{LinkLatency: 10, VCDepth: 10}, core.DefaultSeed)
			if err != nil {
				return err
			}
			fmt.Printf("%-12v %10d %10d %12d %14v\n",
				kind, r.ComputeCycles, r.StepCycles, r.ExposedCommCycles, r.SyncCycles)
		}
		return nil
	})

	run("steadystate", func() error {
		rows, err := core.SteadyStateComparison(*q, 3000, netsim.Config{LinkLatency: 3, VCDepth: 6}, core.DefaultSeed)
		if err != nil {
			return err
		}
		fmt.Printf("steady-state bandwidth (fill factored out), q=%d\n", *q)
		fmt.Printf("%-12s %10s %12s %10s\n", "embedding", "model B", "sustained B", "fill (cyc)")
		for _, r := range rows {
			fmt.Printf("%-12v %10.3f %12.3f %10.0f\n", r.Kind, r.ModelBW, r.Rate, r.Fill)
		}
		return nil
	})

	run("topologies", func() error {
		rows, err := core.TopologyComparison(*q, 0.5)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %8s %8s %10s %14s %12s\n", "topology", "N", "radix", "diameter", "allreduce BW", "BW/radix")
		for _, r := range rows {
			fmt.Printf("%-26s %8d %8d %10d %14.2f %12.3f\n",
				r.Name, r.N, r.Radix, r.Diameter, r.AllreduceBW, r.BWPerRadix)
		}
		return nil
	})

	run("sim", func() error {
		rows, err := core.SimulationSweep(*q, *m, netsim.Config{LinkLatency: 10, VCDepth: 10}, core.DefaultSeed, 1, nil, nil)
		if err != nil {
			return err
		}
		fmt.Printf("q=%d m=%d\n", *q, *m)
		fmt.Printf("%-12s %10s %10s %8s %8s\n", "embedding", "model B", "meas. B", "cycles", "speedup")
		for _, r := range rows {
			fmt.Printf("%-12v %10.3f %10.3f %8d %7.2fx\n", r.Kind, r.ModelBW, r.MeasuredBW, r.Cycles, r.SpeedupVsOne)
		}
		return nil
	})
}
