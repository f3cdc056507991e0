package main

import (
	"fmt"

	"polarfly/internal/chaos"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

// consumer is the trace consumer a workload attaches to every simulation,
// as the CLI path it stands for does.
type consumer int

const (
	noConsumer consumer = iota
	obsvConsumer
	critpathConsumer
)

// layer names the module the consumer's host time is charged to.
func (c consumer) layer() string {
	switch c {
	case obsvConsumer:
		return "obsv"
	case critpathConsumer:
		return "critpath"
	default:
		return ""
	}
}

// spec is one named workload: the cross product qs × kinds × ms on one
// fabric, each design point simulated fault-free and, when plans > 0,
// under that many seeded chaos plans. Workloads set only fabric inputs
// and never netsim.Config.Engine, so they measure the library's default
// advance loop.
type spec struct {
	name     string
	qs       []int
	kinds    []core.EmbeddingKind
	ms       []int
	latency  int
	vcDepth  int
	consumer consumer
	// plans is the number of chaos.RandomPlan fault plans per design
	// point, activating in [minAt, maxAt].
	plans        int
	minAt, maxAt int
}

var (
	allKinds   = []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}
	forestKind = []core.EmbeddingKind{core.LowDepth, core.Hamiltonian}
)

// workloads is the benchmark's table; README.md records why each exists
// and which layer metric should move which end-to-end metric on it.
var workloads = []spec{
	// The `make scorecard` sweep, obsv collector attached as perf does.
	{name: "scorecard", qs: []int{3, 5, 7, 11}, kinds: allKinds, ms: []int{16384},
		latency: 1, vcDepth: 4, consumer: obsvConsumer},
	// Bandwidth-bound regime at §7.3 scale: every link busy, state far
	// beyond cache, no trace consumer.
	{name: "busy-q31", qs: []int{31}, kinds: forestKind, ms: []int{16384},
		latency: 1, vcDepth: 4},
	// Latency-bound regime of `allreduce-sim -sweep` at netsim's default
	// 10-cycle links and 10-flit buffers: idle fill/drain dominates.
	{name: "latency-sweep", qs: []int{17}, kinds: allKinds, ms: []int{64, 256, 1024, 4096},
		latency: 10, vcDepth: 10},
	// The `make campaign` calibration at q=11 with a critpath builder
	// attached: the only workload on the fault/recovery path.
	{name: "chaos-q11", qs: []int{11}, kinds: forestKind, ms: []int{2048},
		latency: 1, vcDepth: 4, consumer: critpathConsumer, plans: 16, minAt: 50, maxAt: 300},
}

func lookup(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one simulation the benchmark runs and checks.
type op struct {
	name   string
	inst   *core.Instance
	e      *core.Embedding
	m      int
	inputs [][]int64
	want   []int64
	cfg    netsim.Config
	// plan is nil for a fault-free operation.
	plan *faults.Plan
}

// fixture is everything set-up builds before the first simulation.
type fixture struct {
	ops   []*op
	trees int
	plans int
}

// planSeed seeds the fault plans: the `make campaign` calibration's
// seed. Drawing plans from the run's seed instead spread Σ simulated
// cycles by 9% across seeds, which only a uselessly loose sim_cycles
// bound would absorb.
var planSeed = chaos.DefaultConfig().Seed

// setup builds the workload's instances, embeddings, inputs and fault
// plans, each call into a layer inside its own span. Only the input
// values depend on the seed. Embeddings and plans use fixed seeds, and
// simulated timing must not depend on values, so every simulated
// statistic is the same under every seed.
func setup(s spec, seed int64, tr *tracer) (*fixture, error) {
	fx := &fixture{}
	for _, q := range s.qs {
		sp := tr.begin("instance", -1)
		inst, err := core.NewInstance(q)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("q=%d: %w", q, err)
		}
		embeds := make([]*core.Embedding, len(s.kinds))
		for i, kind := range s.kinds {
			sp := tr.begin("embed", -1)
			embeds[i], err = inst.Embed(kind)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("q=%d %v: %w", q, kind, err)
			}
			fx.trees += len(embeds[i].Forest)
		}
		for _, m := range s.ms {
			sp := tr.begin("inputs", -1)
			inputs := workload.Vectors(inst.N(), m, 1000, seed)
			want := netsim.ExpectedOutput(inputs)
			tr.end(sp)
			cfg := netsim.Config{LinkLatency: s.latency, VCDepth: s.vcDepth}
			for ki, kind := range s.kinds {
				base := fmt.Sprintf("q=%d %v m=%d", q, kind, m)
				fx.ops = append(fx.ops, &op{name: base, inst: inst, e: embeds[ki], m: m,
					inputs: inputs, want: want, cfg: cfg})
				for run := 0; run < s.plans; run++ {
					// Plan run of embedding ki is run `run` of that
					// point in the `make campaign` calibration.
					sp := tr.begin("faults", -1)
					plan, err := chaos.RandomPlan(inst, embeds[ki], s.latency, s.minAt, s.maxAt,
						chaos.RunSeed(planSeed, q, ki, run))
					tr.end(sp)
					if err != nil {
						return nil, fmt.Errorf("%s plan %d: %w", base, run, err)
					}
					pcfg := cfg
					pcfg.Faults = plan
					fx.ops = append(fx.ops, &op{name: fmt.Sprintf("%s plan %d", base, run),
						inst: inst, e: embeds[ki], m: m, inputs: inputs, want: want, cfg: pcfg, plan: plan})
					fx.plans++
				}
			}
		}
	}
	return fx, nil
}
