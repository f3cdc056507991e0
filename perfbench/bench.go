package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"polarfly/internal/critpath"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
)

// The untraced run repeats set-up at least setupReps times and until
// setupShare of its seconds are spent, so cheap set-ups get a median
// over many samples; setup_s is that median.
const (
	setupReps  = 7
	setupShare = 0.05
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    uint64
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// bench runs one workload's passes and keeps its tallies.
type bench struct {
	s         spec
	w         io.Writer
	attempted int
	failed    int
	// digests are the first pass's per-op digests; every later pass must
	// repeat them.
	digests []uint64
}

// passStats are one pass's end-to-end figures.
type passStats struct {
	wall     time.Duration
	alloc    uint64
	flits    int
	cycles   int
	modelErr float64
}

// layerStats accumulates the traced passes' per-layer counters. The
// netsim figures come from the bare (consumer-free) runs.
type layerStats struct {
	events                          int
	allocBytes, allocs              uint64
	gcCPU                           float64
	arenaTotal, arenaMax            int64
	flows                           int
	busy, linkCycles, stall, cycles int
	sent, delivered                 int
	recoveries, dropped             int
	allTreesLost, recoveryLimit     int
}

// run measures workload s for about seconds and returns its result line.
// The untraced run repeats set-up, then repeats passes over every op; the
// traced run sets up once, makes one untraced reference pass, then traced
// passes, and writes its spans under outDir.
func run(s spec, seed int64, seconds float64, traced bool, outDir string, w io.Writer) (*result, error) {
	b := &bench{s: s, w: w}
	r := &result{Metrics: make(map[string]metric)}
	if traced {
		if err := b.traced(r, seed, seconds, outDir); err != nil {
			return nil, err
		}
	} else if err := b.untraced(r, seed, seconds); err != nil {
		return nil, err
	}
	h := uint64(14695981039346656037)
	for _, d := range b.digests {
		h = (h ^ d) * 1099511628211
	}
	r.digest = h
	fmt.Fprintf(w, "digest %s %016x (%d ops)\n", s.name, h, len(b.digests))
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0
	return r, nil
}

func (b *bench) untraced(r *result, seed int64, seconds float64) error {
	var fx *fixture
	var setups []float64
	spent := 0.0
	for len(setups) < setupReps || spent < setupShare*seconds {
		fx = nil // the previous set-up's fixture is garbage before the GC
		runtime.GC()
		t0 := now()
		var err error
		if fx, err = setup(b.s, seed, nil); err != nil {
			return err
		}
		d := since(t0).Seconds()
		spent += d
		setups = append(setups, d)
	}
	start := now()
	var walls, rates, allocs []float64
	var first passStats
	for len(walls) == 0 || since(start).Seconds()+walls[len(walls)-1] <= seconds {
		ps := b.pass(fx, nil, nil)
		if len(walls) == 0 {
			first = ps
		}
		walls = append(walls, ps.wall.Seconds())
		fmt.Fprintf(b.w, "pass %d: %.3f s, %d flits, %d heap bytes\n", len(walls), ps.wall.Seconds(), ps.flits, ps.alloc)
		rates = append(rates, float64(ps.flits)/ps.wall.Seconds())
		allocs = append(allocs, float64(ps.alloc))
	}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "passes %d, setups %d\n", len(walls), len(setups))
	r.set("wall_s", "s", median(walls))
	r.set("setup_s", "s", median(setups))
	r.set("flits_per_s", "1/s", median(rates))
	r.set("alloc_bytes", "bytes", median(allocs))
	r.set("peak_rss_bytes", "bytes", float64(rss))
	r.set("sim_cycles", "cycles", float64(first.cycles))
	r.set("model_err_max", "ratio", first.modelErr)
	return nil
}

func (b *bench) traced(r *result, seed int64, seconds float64, outDir string) error {
	tr := newTracer()
	sp := tr.begin("setup", -1)
	fx, err := setup(b.s, seed, tr)
	tr.end(sp)
	if err != nil {
		return err
	}
	start := now()
	ref := b.pass(fx, nil, nil)
	var st layerStats
	var tracedWall time.Duration
	n := 0
	for n == 0 || since(start)+tracedWall/time.Duration(n) <= time.Duration(seconds*float64(time.Second)) {
		tracedWall += b.pass(fx, tr, &st).wall
		n++
	}
	fmt.Fprintf(b.w, "traced passes %d after 1 untraced reference pass\n", n)
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.s.name, seed))); err != nil {
		return err
	}

	self := tr.self
	perPass := func(v float64) float64 { return v / float64(n) }
	secs := func(name string) float64 { return self[name].Seconds() }
	r.set("instance.host_s", "s", secs("instance"))
	r.set("embed.host_s", "s", secs("embed"))
	r.set("embed.trees", "count", float64(fx.trees))
	r.set("inputs.host_s", "s", secs("inputs"))
	r.set("faults.plan_host_s", "s", secs("faults"))
	r.set("faults.plans", "count", float64(fx.plans))
	r.set("faults.recoveries", "count", perPass(float64(st.recoveries)))
	r.set("faults.dropped_flits", "count", perPass(float64(st.dropped)))
	r.set("faults.all_trees_lost", "count", perPass(float64(st.allTreesLost)))
	r.set("faults.recovery_limit", "count", perPass(float64(st.recoveryLimit)))

	netNS := float64(self["netsim"].Nanoseconds())
	r.set("netsim.host_s", "s", perPass(secs("netsim")))
	r.set("netsim.busy_link_cycles", "cycles", perPass(float64(st.busy)))
	r.set("netsim.ns_per_busy_link_cycle", "ns", ratio(netNS, float64(st.busy)))
	r.set("netsim.ns_per_sim_cycle", "ns", ratio(netNS, float64(st.cycles)))
	r.set("netsim.link_util_mean", "ratio", ratio(float64(st.busy), float64(st.linkCycles)))
	r.set("netsim.stall_cycles", "cycles", perPass(float64(st.stall)))
	r.set("netsim.delivered_ratio", "ratio", ratio(float64(st.delivered), float64(st.sent)))
	r.set("netsim.arena_bytes", "bytes", float64(st.arenaMax))
	r.set("netsim.arena_bytes_per_flow", "bytes", ratio(float64(st.arenaTotal), float64(st.flows)))
	r.set("netsim.arena_model_ratio", "ratio", ratio(float64(st.arenaTotal), float64(st.allocBytes)))
	r.set("netsim.alloc_bytes", "bytes", perPass(float64(st.allocBytes)))
	r.set("netsim.allocs", "count", perPass(float64(st.allocs)))
	r.set("netsim.gc_cpu_s", "s", perPass(st.gcCPU))

	// A consumer's host time is its attached run minus the bare run of
	// the same ops, plus its report or Analyze call.
	for _, c := range []consumer{obsvConsumer, critpathConsumer} {
		name, report := c.layer(), c.layer()+".report"
		if c == critpathConsumer {
			report = c.layer() + ".analyze"
		}
		var host time.Duration
		events := 0
		if b.s.consumer == c {
			host = self[name] - self["netsim"] + self[report]
			events = st.events
		}
		r.set(name+".host_s", "s", perPass(host.Seconds()))
		r.set(report+"_host_s", "s", perPass(secs(report)))
		r.set(name+".events", "count", perPass(float64(events)))
		r.set(name+".ns_per_event", "ns", ratio(float64(host.Nanoseconds()), float64(events)))
	}
	r.set("check.host_s", "s", perPass(secs("check")))
	r.set("trace.coverage", "ratio", ratio(float64(tr.layerTime()), float64(tr.rootTime())))
	r.set("trace.overhead", "ratio", ratio(tracedWall.Seconds()/float64(n), ref.wall.Seconds()))
	return nil
}

// pass runs every op once and checks it. With a tracer it first runs
// each op bare (no consumer) for the netsim layer's figures, then with
// the workload's consumer, counting its trace events.
func (b *bench) pass(fx *fixture, tr *tracer, st *layerStats) passStats {
	runtime.GC()
	var ps passStats
	a0 := heapAllocs()[0]
	t0 := now()
	sp := tr.begin("pass", -1)
	firstPass := b.digests == nil
	for i, o := range fx.ops {
		osp := tr.begin("op", i)
		var bare *outcome
		if tr != nil {
			bare = bareRun(i, o, tr, st)
		}
		out := bare
		if tr == nil || b.s.consumer != noConsumer {
			out = b.simulate(i, o, tr, st)
		}
		csp := tr.begin("check", i)
		fails := check(o, out)
		d := digest(out)
		if bare != nil && bare != out && digest(bare) != d {
			fails = append(fails, "the trace consumer changed the simulated statistics")
		}
		tr.end(csp)
		tr.end(osp)

		if firstPass {
			b.digests = append(b.digests, d)
			end, _ := termination(out.err)
			cycles, flits := 0, 0
			if out.res != nil {
				cycles, flits = out.res.Cycles, out.res.FlitsSent
			}
			fmt.Fprintf(b.w, "op %d %s: %s cycles=%d flits=%d digest=%016x\n", i, o.name, end, cycles, flits, d)
		} else if b.digests[i] != d {
			fails = append(fails, fmt.Sprintf("digest %016x differs from the first pass's %016x", d, b.digests[i]))
		}
		b.attempted++
		if len(fails) > 0 {
			b.failed++
			fmt.Fprintf(b.w, "FAIL op %d %s: %s\n", i, o.name, strings.Join(fails, "; "))
		}
		if res := out.res; res != nil {
			ps.flits += res.FlitsSent
			ps.cycles += res.Cycles
			if o.plan == nil {
				if e := modelErr(o, res); e > ps.modelErr {
					ps.modelErr = e
				}
			}
		}
	}
	tr.end(sp)
	ps.wall = since(t0)
	ps.alloc = uint64(heapAllocs()[0] - a0)
	return ps
}

// simulate runs op i with the workload's consumer attached.
func (b *bench) simulate(i int, o *op, tr *tracer, st *layerStats) *outcome {
	cfg := o.cfg
	var col *obsv.Collector
	var bld *critpath.Builder
	switch b.s.consumer {
	case noConsumer:
	case obsvConsumer:
		col = obsv.NewCollector()
		col.DisableSpans = true // metrics only, as the scorecard runs it
		col.Attach(&cfg)
	case critpathConsumer:
		bld = critpath.NewBuilder()
		bld.Attach(&cfg)
	}
	if tr != nil && cfg.Trace != nil {
		inner := cfg.Trace
		cfg.Trace = func(ev netsim.TraceEvent) {
			st.events++
			inner(ev)
		}
	}
	sp := tr.begin(b.s.consumer.layer(), i)
	res, err := o.inst.Allreduce(o.e, o.inputs, cfg)
	tr.end(sp)
	out := &outcome{res: res, err: err}
	switch {
	case col != nil && err == nil:
		sp := tr.begin("obsv.report", i)
		col.SetCycles(res.Cycles)
		out.rep = col.Metrics(obsv.NewRegistry())
		tr.end(sp)
	case bld != nil && err == nil:
		sp := tr.begin("critpath.analyze", i)
		out.an, out.anErr = bld.Analyze(res.Cycles)
		tr.end(sp)
	}
	return out
}

// bareRun runs op i with no trace consumer inside a netsim span and
// records the netsim layer's counters and heap activity.
func bareRun(i int, o *op, tr *tracer, st *layerStats) *outcome {
	before := heapAllocs()
	sp := tr.begin("netsim", i)
	res, err := o.inst.Allreduce(o.e, o.inputs, o.cfg)
	tr.end(sp)
	after := heapAllocs()
	st.gcCPU += after[2] - before[2]
	if err != nil {
		switch end, _ := termination(err); end {
		case "all-trees-lost":
			st.allTreesLost++
		case "recovery-limit":
			st.recoveryLimit++
		}
		return &outcome{err: err}
	}
	st.allocBytes += uint64(after[0] - before[0])
	st.allocs += uint64(after[1] - before[1])
	st.arenaTotal += res.Arena.TotalBytes
	st.arenaMax = max(st.arenaMax, res.Arena.TotalBytes)
	st.flows += res.Arena.Flows
	st.cycles += res.Cycles
	st.sent += res.FlitsSent
	st.delivered += res.DeliveredFlits
	st.dropped += res.DroppedFlits
	st.recoveries += len(res.Recoveries)
	for _, l := range res.LinkStats {
		st.busy += l.BusyCycles
		st.stall += l.StallCycles
	}
	st.linkCycles += len(res.LinkStats) * res.Cycles
	return &outcome{res: res, err: err}
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// heapAllocs returns the bytes and objects allocated so far and the GC
// CPU seconds spent so far.
func heapAllocs() [3]float64 {
	metrics.Read(heapSamples)
	return [3]float64{
		float64(heapSamples[0].Value.Uint64()),
		float64(heapSamples[1].Value.Uint64()),
		heapSamples[2].Value.Float64(),
	}
}

// peakRSS reads the process's resident-set high-water mark.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
