package netsim

import (
	"fmt"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// benchSpec prepares a PolarFly allreduce spec outside the timed loop.
// It accepts testing.TB so the engine-differential tests can reuse it.
func benchSpec(b testing.TB, q, m int, kind string) Spec {
	b.Helper()
	pg, err := er.New(q)
	if err != nil {
		b.Fatal(err)
	}
	var forest []*trees.Tree
	topo := pg.G
	switch kind {
	case "single":
		tr, err := trees.SingleTreeBaseline(pg.G, 0)
		if err != nil {
			b.Fatal(err)
		}
		forest = []*trees.Tree{tr}
	case "lowdepth":
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			b.Fatal(err)
		}
		forest, err = trees.LowDepthForest(l)
		if err != nil {
			b.Fatal(err)
		}
	case "hamiltonian":
		s, err := singer.New(q)
		if err != nil {
			b.Fatal(err)
		}
		forest, err = trees.HamiltonianForest(s, 30, 42)
		if err != nil {
			b.Fatal(err)
		}
		topo = s.Topology()
	}
	wf := bandwidth.ForForest(forest, 1.0)
	split, err := bandwidth.SubvectorSplit(m, wf.PerTree)
	if err != nil {
		b.Fatal(err)
	}
	return Spec{Topology: topo, Forest: forest, Split: split, Inputs: randInputs(topo.N(), m, 1)}
}

// BenchmarkSimulator measures simulator throughput (wall time per simulated
// allreduce) for the three embeddings on ER_7.
func BenchmarkSimulator(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 7, 2048, kind)
		b.Run(kind, func(b *testing.B) {
			cfg := Config{LinkLatency: 5, VCDepth: 8}
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}

// hotLoopCfg is the fabric point shared by the hot-loop benchmarks: deep
// enough links that the credit loop matters, small enough buffers that
// arbitration and stalls are exercised.
func hotLoopCfg() Config { return Config{LinkLatency: 5, VCDepth: 8} }

// BenchmarkHotLoop isolates the cycle-loop cost at the largest swept
// design point (q=11, N=133) with a vector long enough that steady-state
// streaming dominates pipeline fill. One iteration is one full Allreduce;
// ns/op and allocs/op are the regression-gated signals (see
// BENCH_netsim.json for the committed pre-optimization baseline).
func BenchmarkHotLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}

// BenchmarkCycleLoop times the cycle loop alone: simulator construction
// and result finalization run outside the timer, so allocs/op measures
// exactly what the hotalloc analyzer proves about cycleLoop's call graph.
// The benchreport hotcheck gate asserts this stays ≤ 1 alloc/op on the
// fault-free path.
func BenchmarkCycleLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := newSim(spec, cfg, forceCycle)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				now, err := s.cycleLoop()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.finalize(now); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEventLoop times the event-driven loop alone at the same q=11
// points as BenchmarkCycleLoop — construction and finalization outside
// the timer — so allocs/op measures exactly what the hotalloc analyzer
// proves about eventLoop's call graph. The benchreport hotcheck gate
// asserts this stays ≤ 1 alloc/op alongside the cycle-loop witness.
func BenchmarkEventLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := newSim(spec, cfg, forceEvent)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				now, err := s.eventLoop()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.finalize(now); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEngineScale is the committed cycle-vs-event headline point:
// q=31 (N=993) Hamiltonian with deep pipelines and one short flow per
// directed link, so most links idle most cycles — a latency-bound shape
// on which Run selects the event loop. The cycle loop still visits every
// link every cycle; the event loop only wakes the active ones. The
// committed BENCH_netsim-event.json records both subbenches, and CI's
// compare gate fails if the event loop's advantage on this shape
// evaporates.
func BenchmarkEngineScale(b *testing.B) {
	spec := benchSpec(b, 31, 4096, "hamiltonian")
	for _, loop := range []struct {
		name   string
		choice loopChoice
	}{{"cycle", forceCycle}, {"event", forceEvent}} {
		b.Run("q=31/engine="+loop.name, func(b *testing.B) {
			cfg := Config{LinkLatency: 10, VCDepth: 16}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := newSim(spec, cfg, loop.choice)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var now int
				if s.ev != nil {
					now, err = s.eventLoop()
				} else {
					now, err = s.cycleLoop()
				}
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.finalize(now)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkHotLoopFaulted measures the faulted hot path at q=11: the
// per-flow send timestamps, the timeout scan, one mid-run link-down, and
// the recovery re-issue. The single-tree baseline is excluded — any link
// failure kills its only tree and the run aborts.
func BenchmarkHotLoopFaulted(b *testing.B) {
	for _, kind := range []string{"lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		// Fail the first edge of tree 0 mid-reduction: deterministic, and
		// guaranteed to cross at least one tree so recovery really runs.
		var u, v int
		for w, p := range spec.Forest[0].Parent {
			if p >= 0 {
				u, v = w, p
				break
			}
		}
		plan := &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: 400},
		}}
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			cfg.Faults = plan
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Recoveries) == 0 {
					b.Fatal("faulted benchmark performed no recovery")
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}

// BenchmarkSimulatorScaling measures wall time as the instance grows.
func BenchmarkSimulatorScaling(b *testing.B) {
	for _, q := range []int{5, 9, 13} {
		spec := benchSpec(b, q, 1024, "lowdepth")
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			cfg := Config{LinkLatency: 5, VCDepth: 8}
			for i := 0; i < b.N; i++ {
				if _, err := Run(spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
