package netsim

import (
	"fmt"
	"sort"
)

// Run executes one in-network Allreduce and returns the cycle count and the
// value-verified outputs. It validates the spec first: every tree must be a
// spanning tree of the topology, the split must match the input length, and
// all nodes must provide equal-length inputs.
//
// The advance loop is chosen from the run's shape (see eventLoopFits),
// never by the caller: both loops produce byte-identical results, traces
// and telemetry, and differ only in host time and Result.Arena.EventBytes.
func Run(spec Spec, cfg Config) (*Result, error) {
	return runWith(spec, cfg, pickLoop)
}

// runWith is Run on a given loop choice; tests force a loop through it.
func runWith(spec Spec, cfg Config, choice loopChoice) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSim(spec, cfg, choice)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// loopChoice tells newSim which advance loop to prepare. Run always
// passes pickLoop; tests and benchmarks force a loop to compare or time
// it, and never force the event loop onto a fault plan or an EngineRate
// cap, which it does not implement.
type loopChoice int

const (
	pickLoop   loopChoice = iota // eventLoopFits decides
	forceCycle                   // the reference per-cycle loop
	forceEvent                   // the cycle-skipping event loop
)

// eventLoopFits reports whether a run is latency-bound enough for the
// event loop to pay for its wake bookkeeping: it must be fault-free, have
// no EngineRate cap (the event loop carries no code for either), and its
// pipeline fill must dominate streaming — LinkLatency × the deepest
// tree's depth exceeds the longest per-tree stream. Bandwidth-bound runs
// keep most links busy every cycle, where the cycle loop's flat scan is
// cheaper (DESIGN.md §7h has the measurements). spec must already be
// validated.
func eventLoopFits(spec Spec, cfg Config) bool {
	if cfg.Faults != nil || cfg.EngineRate > 0 {
		return false
	}
	depth := 0
	for _, t := range spec.Forest {
		depth = max(depth, t.MaxDepth())
	}
	longest := 0
	for _, m := range spec.Split {
		longest = max(longest, m)
	}
	return cfg.LinkLatency*depth > longest
}

type sim struct {
	spec Spec
	cfg  Config

	n       int
	m       int   // total vector length
	offsets []int // segment offset per tree

	// linkMap resolves directed (from,to) → link during construction only;
	// it is released at freeze time in favour of the CSR row index, so the
	// cycle loop and recovery path never touch a map.
	linkMap map[[2]int]*link
	links   []*link // links in deterministic (from, to) order
	// rowStart[v] is the index of node v's first outgoing link in links
	// (rowStart[n] == len(links)); links within a row are sorted by
	// destination, so linkAt is a binary search over the row. A CSR index
	// instead of a dense n×n table: at q=127 (N=16 257) the dense table
	// alone would cost a gigabyte for a fabric whose links number ~2M.
	rowStart []int32
	frozen   bool   // link set frozen; recovery may not add links
	jobs     []*job // initial jobs (one per tree) + recovery re-issues
	pending  int    // flit deliveries still outstanding (all jobs, all nodes)

	// ev is the event-loop state (wake sets, timing wheel, retirement
	// queues); nil when newSim selected the cycle loop, and run dispatches
	// on it.
	ev *evState

	// traced is cfg.Trace != nil, hoisted so hot-loop emit sites skip
	// building TraceEvent values on untraced runs. lint:cold
	traced bool

	// Telemetry sampling state (see sample.go); sampling is cfg.Sample !=
	// nil, hoisted like traced so the unsampled cycle loop never branches
	// into frame assembly. The scratch frame is the only allocation.
	// lint:cold
	sampling      bool
	nextSample    int
	sampleScratch []LinkCounters
	sampleFrame   SampleFrame
	delivered     int // completed target deliveries (root computes + bcast arrivals)
	reduceFlits   int // FlitsSent split: reduce-phase injections
	reissuedTotal int // elements re-issued across all recovery rounds
	// lastFaultCycle / lastRecoverCycle are the RunCounters gauges, -1
	// until the first event.
	lastFaultCycle   int
	lastRecoverCycle int

	// outputs[v] is node v's assembled m-element result, written in place
	// at delivery time (broadcast arrival or root-local compute). All rows
	// share one contiguous backing array.
	outputs [][]int64

	// engineUsed[v] counts reduction flits produced by router v this
	// cycle, compared against cfg.EngineRate when it is non-zero.
	engineUsed []int

	// Fault injection state; zero-valued and untouched on fault-free runs.
	// lint:cold
	faultsOn    bool
	faultActive []bool          // per plan fault: currently in its window
	stalled     []bool          // per node: reduction engine frozen
	deadTree    []bool          // per forest tree: aborted by recovery
	quarantined map[[2]int]bool // undirected links detected as failed

	result Result
}

// linkAt resolves a directed link through the CSR row index; nil when the
// pair carries no flow. Valid only after freeze. O(log degree), used by
// the fault/recovery paths only — never by the advance loops.
func (s *sim) linkAt(from, to int) *link {
	lo, hi := int(s.rowStart[from]), int(s.rowStart[from+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.links[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(s.rowStart[from+1]) && s.links[lo].to == to {
		return s.links[lo]
	}
	return nil
}

func newSim(spec Spec, cfg Config, choice loopChoice) (*sim, error) {
	g := spec.Topology
	if g == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	n := g.N()
	if len(spec.Forest) == 0 {
		return nil, fmt.Errorf("netsim: empty forest")
	}
	if len(spec.Split) != len(spec.Forest) {
		return nil, fmt.Errorf("netsim: %d split entries for %d trees", len(spec.Split), len(spec.Forest))
	}
	if len(spec.Inputs) != n {
		return nil, fmt.Errorf("netsim: %d input vectors for %d nodes", len(spec.Inputs), n)
	}
	if spec.Op < OpAllreduce || spec.Op > OpBroadcast {
		return nil, fmt.Errorf("netsim: unknown op %v", spec.Op)
	}
	s := &sim{spec: spec, cfg: cfg, n: n, linkMap: make(map[[2]int]*link),
		engineUsed: make([]int, n), traced: cfg.Trace != nil}
	s.offsets = make([]int, 0, len(spec.Forest))
	s.jobs = make([]*job, 0, len(spec.Forest))
	for i, t := range spec.Forest {
		if err := t.ValidateSpanning(g); err != nil {
			return nil, fmt.Errorf("netsim: tree %d: %w", i, err)
		}
		if spec.Split[i] < 0 {
			return nil, fmt.Errorf("netsim: negative split for tree %d", i)
		}
		s.offsets = append(s.offsets, s.m)
		s.m += spec.Split[i]
	}
	for v, in := range spec.Inputs {
		if len(in) != s.m {
			return nil, fmt.Errorf("netsim: node %d input length %d, want %d", v, len(in), s.m)
		}
	}
	if cfg.Faults != nil {
		if spec.Op != OpAllreduce {
			return nil, fmt.Errorf("netsim: fault injection requires OpAllreduce, got %v", spec.Op)
		}
		for i, f := range cfg.Faults.Faults {
			if f.IsLink() {
				if f.U >= n || f.V >= n {
					return nil, fmt.Errorf("netsim: fault %d: link %d-%d outside %d-node topology", i, f.U, f.V, n)
				}
			} else if f.Node >= n {
				return nil, fmt.Errorf("netsim: fault %d: node %d outside %d-node topology", i, f.Node, n)
			}
		}
		s.faultsOn = true
		s.faultActive = make([]bool, len(cfg.Faults.Faults))
		s.stalled = make([]bool, n)
		s.deadTree = make([]bool, len(spec.Forest))
		s.quarantined = make(map[[2]int]bool)
	}

	// One contiguous backing array for all n result rows.
	outBack := make([]int64, n*s.m)
	s.outputs = make([][]int64, n)
	for v := 0; v < n; v++ {
		s.outputs[v] = outBack[v*s.m : (v+1)*s.m : (v+1)*s.m]
	}
	for ti := range spec.Forest {
		s.addStream(ti, s.offsets[ti], spec.Split[ti])
	}
	s.result.TreeDone = make([]int, len(spec.Forest))
	s.result.TreeReduceDone = make([]int, len(spec.Forest))
	for i := range s.result.TreeDone {
		s.result.TreeDone[i] = -1
		if spec.Op == OpBroadcast {
			s.result.TreeReduceDone[i] = -1 // no reduce phase
		}
		s.checkJobDone(s.jobs[i], 0) // zero-split or trivially-complete trees
	}

	// Freeze a deterministic link order for the cycle loop.
	keys := make([][2]int, 0, len(s.linkMap))
	for k := range s.linkMap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	s.links = make([]*link, 0, len(keys))
	for _, k := range keys {
		s.links = append(s.links, s.linkMap[k])
	}
	s.linkMap = nil

	// Replace the construction map with the CSR row index the recovery
	// re-issues resolve through, and give every link a pipeline sized for
	// its maximum in-flight load (LinkBandwidth injections per cycle, each
	// airborne LinkLatency cycles) so injection never grows the backing
	// array.
	s.rowStart = make([]int32, n+1)
	for _, l := range s.links {
		s.rowStart[l.from+1]++
	}
	for v := 0; v < n; v++ {
		s.rowStart[v+1] += s.rowStart[v]
	}
	bw := cfg.LinkBandwidth
	if bw == 0 {
		bw = 1
	}
	for id, l := range s.links {
		l.id = int32(id)
		l.pipeline = make([]inflight, 0, bw*cfg.LinkLatency)
	}
	s.frozen = true
	s.initSampling()
	if choice == forceEvent || choice == pickLoop && eventLoopFits(spec, cfg) {
		s.initEvent()
	}
	return s, nil
}

// addFlow registers a flow with its directed link. After the link set is
// frozen (recovery re-issues), the link must already exist — surviving
// trees only use links their initial flows created — and is resolved
// through the dense index table instead of the construction map.
func (s *sim) addFlow(f *flow) *flow {
	var l *link
	if s.frozen {
		l = s.linkAt(f.from, f.to)
		if l == nil {
			panic(fmt.Sprintf("netsim: internal: re-issue on unknown link %d→%d", f.from, f.to))
		}
	} else {
		key := [2]int{f.from, f.to}
		var ok bool
		l, ok = s.linkMap[key]
		if !ok {
			l = &link{from: f.from, to: f.to}
			s.linkMap[key] = l
		}
	}
	l.flows = append(l.flows, f)
	f.ln = l
	return f
}

// addStream builds one job — the collective for the contiguous global
// range [goff, goff+mt) over forest tree ti — together with its per-node
// state and flows. It is used both for the initial Equation 2 split and
// for recovery re-issues, so flow creation order (ascending vertex,
// reduce before broadcast) is part of the determinism contract.
//
// All per-node state, all flows, and all receive buffers of the job live
// in three contiguous blocks allocated up front: a tree contributes n−1
// edges per active phase, and credit flow caps every buffer at VCDepth
// flits, so the sizes are exact.
func (s *sim) addStream(ti, goff, mt int) *job {
	t := s.spec.Forest[ti]
	j := &job{idx: len(s.jobs), tree: ti, goff: goff, m: mt, nodes: make([]nodeTree, s.n)}
	for v := 0; v < s.n; v++ {
		j.nodes[v] = nodeTree{
			parent: t.Parent[v],
			seg:    s.spec.Inputs[v][goff : goff+mt],
		}
	}
	withReduce := s.spec.Op == OpAllreduce || s.spec.Op == OpReduce
	withBcast := s.spec.Op == OpAllreduce || s.spec.Op == OpBroadcast
	phases := 0
	if withReduce {
		phases++
	}
	if withBcast {
		phases++
	}
	nflows := phases * (s.n - 1)
	flowBlock := make([]flow, 0, nflows)
	bufBlock := make([]int64, nflows*s.cfg.VCDepth)
	newFlow := func(fl flow) *flow {
		i := len(flowBlock)
		fl.buf = bufBlock[i*s.cfg.VCDepth : i*s.cfg.VCDepth : (i+1)*s.cfg.VCDepth]
		flowBlock = append(flowBlock, fl)
		return &flowBlock[i]
	}
	for v := 0; v < s.n; v++ {
		nt := &j.nodes[v]
		p := t.Parent[v]
		if p >= 0 {
			pt := &j.nodes[p]
			if withReduce {
				nt.redOut = s.addFlow(newFlow(flow{j: j, tree: ti, phase: phaseReduce,
					from: v, to: p, m: mt, snd: nt, rcv: pt}))
				pt.redIn = append(pt.redIn, nt.redOut)
			}
			if withBcast {
				nt.bcastIn = s.addFlow(newFlow(flow{j: j, tree: ti, phase: phaseBcast,
					from: p, to: v, m: mt, snd: pt, rcv: nt}))
				pt.bcastOut = append(pt.bcastOut, nt.bcastIn)
			}
		} else {
			// The root's reduction engine output is the root's result row:
			// both were always written with identical values at identical
			// times, so they share the outputs storage (and recovery
			// re-issues reuse it instead of allocating fresh scratch).
			nt.rootResult = s.outputs[v][goff : goff+mt]
			if s.spec.Op == OpBroadcast {
				// The root sources its own input; it is trivially done.
				copy(nt.rootResult, nt.seg)
				nt.rootComputed = mt
				nt.delivered = mt
			}
		}
		// Completion targets per op: everyone for allreduce/broadcast,
		// only the root for reduce.
		switch s.spec.Op {
		case OpReduce:
			if p < 0 {
				nt.target = mt
			}
		default:
			nt.target = mt
		}
		s.pending += nt.target - nt.delivered
		j.remaining += nt.target - nt.delivered
	}
	// Seed the event loop's incremental minima (see nodeTree): every
	// in-stream starts at arrived == 0 and every out-stream at sent == 0,
	// so the census is len at minimum 0; empty sets take the sentinel the
	// fast paths expect. Harmless on the cycle loop, which never reads
	// these fields, and recovery re-issues pass through here too.
	for v := 0; v < s.n; v++ {
		nt := &j.nodes[v]
		nt.redMinCnt = len(nt.redIn)
		if len(nt.bcastOut) == 0 {
			nt.bcastMin = evInf
		} else {
			nt.bcastMinCnt = len(nt.bcastOut)
		}
	}
	s.jobs = append(s.jobs, j)
	return j
}

// reduceReady returns how many reduced flits node nt could emit so far:
// bounded by the slowest child stream (its own input is always available).
func (nt *nodeTree) reduceReady(m int) int {
	ready := m
	for _, cf := range nt.redIn {
		if cf.arrived < ready {
			ready = cf.arrived
		}
	}
	return ready
}

// senderReady returns how many flits the sender of f has available to
// inject.
func (s *sim) senderReady(f *flow) int {
	nt := f.snd
	if f.phase == phaseReduce {
		return nt.reduceReady(f.m)
	}
	// Broadcast: the root sources from its reduction engine, everyone else
	// from the stream received from their parent.
	if nt.bcastIn == nil {
		return nt.rootComputed
	}
	return nt.bcastIn.arrived
}

// flitValue produces the value of flit k on flow f at injection time.
func (s *sim) flitValue(f *flow, k int) int64 {
	nt := f.snd
	if f.phase == phaseReduce {
		v := nt.seg[k]
		for _, cf := range nt.redIn {
			v += cf.at(k)
		}
		return v
	}
	if nt.bcastIn == nil {
		return nt.rootResult[k]
	}
	return nt.bcastIn.at(k)
}

// updateConsumed advances every flow's consumed counter (credit release)
// from the receiver's progress, and trims buffers.
func (s *sim) updateConsumed() {
	for _, l := range s.links {
		for _, f := range l.flows {
			if f.consumed >= f.m {
				continue // stream fully retired
			}
			nt := f.rcv
			var c int
			if f.phase == phaseReduce {
				if nt.redOut != nil {
					// A reduced flit k is retired from each child buffer
					// when the combined flit k departs toward the parent.
					c = nt.redOut.sent
				} else {
					// Root: retired when the reduction engine computes it.
					c = nt.rootComputed
				}
			} else {
				// Broadcast buffer at v is retired when flit k has been
				// forwarded to all of v's children (leaves retire on
				// arrival; local delivery copies the value eagerly).
				c = f.arrived
				for _, of := range nt.bcastOut {
					if of.sent < c {
						c = of.sent
					}
				}
			}
			if c > f.consumed {
				l.curBuf -= c - f.consumed
				f.consumed = c
				f.dropTo(c)
			}
		}
	}
}

// rootCompute advances every root reduction engine by at most one flit per
// job per cycle (link rate), recording the final value and delivering it
// locally.
func (s *sim) rootCompute(now int) {
	if s.spec.Op == OpBroadcast {
		return // roots already hold their source data
	}
	// The reduction engine runs at link rate: up to LinkBandwidth flits
	// per job per cycle (§5.1), unless EngineRate caps total output.
	perJob := s.cfg.LinkBandwidth
	if perJob == 0 {
		perJob = 1
	}
	for _, j := range s.jobs {
		if j.dead || j.done {
			continue
		}
		root := s.spec.Forest[j.tree].Root
		if s.faultsOn && s.stalled[root] {
			continue
		}
		nt := &j.nodes[root]
		mt := j.m
		for slot := 0; slot < perJob; slot++ {
			if nt.rootComputed >= mt {
				break
			}
			if s.cfg.EngineRate > 0 && s.engineUsed[root] >= s.cfg.EngineRate {
				break
			}
			k := nt.rootComputed
			ready := true
			for _, cf := range nt.redIn {
				if cf.arrived <= k {
					ready = false
					break
				}
			}
			if !ready {
				break
			}
			v := nt.seg[k]
			for _, cf := range nt.redIn {
				v += cf.at(k)
			}
			// rootResult aliases s.outputs[root][goff:goff+mt], so this one
			// write is both the engine output and the local delivery.
			nt.rootResult[k] = v
			nt.rootComputed++
			if nt.rootComputed == mt {
				s.result.TreeReduceDone[j.tree] = now
			}
			nt.delivered++
			if s.sampling {
				s.delivered++
			}
			s.engineUsed[root]++
			s.pending--
			j.remaining--
			if s.traced {
				s.emit(TraceEvent{Cycle: now, Kind: TraceRootCompute, Tree: j.tree,
					From: root, To: root, Flit: k, Value: v, Job: j.idx})
			}
			s.checkJobDone(j, now)
		}
	}
}

// noteStall records a credit stall: the stream has a flit ready but its
// VC window is full. Each stream and each link count at most one stall
// per cycle, because the arbitration scan may revisit a blocked flow.
func (s *sim) noteStall(l *link, f *flow, now int) {
	if f.stallCycle == now {
		return
	}
	f.stallCycle = now
	if l.stallMark != now {
		l.stallMark = now
		l.stallCycles++
	}
	s.emit(TraceEvent{Cycle: now, Kind: TraceStall, Tree: f.tree, Phase: f.phase,
		From: f.from, To: f.to, Flit: f.sent, Value: int64(f.sent - f.consumed), Job: f.j.idx})
}

// checkJobDone marks a completed job and, when it was the last unfinished
// job on its tree, records the tree's completion cycle. The per-job
// remaining counter makes the completion test O(1) per delivery.
func (s *sim) checkJobDone(j *job, now int) {
	if j.done || j.dead || j.remaining > 0 {
		return
	}
	j.done = true
	for _, o := range s.jobs {
		if o.tree == j.tree && !o.dead && !o.done {
			return
		}
	}
	s.result.TreeDone[j.tree] = now
}

func (s *sim) run() (*Result, error) {
	var now int
	var err error
	if s.ev != nil {
		now, err = s.eventLoop()
	} else {
		now, err = s.cycleLoop()
	}
	if err != nil {
		return nil, err
	}
	return s.finalize(now)
}

// cycleLoop advances the simulation one cycle at a time until every flit
// is delivered, returning the cycle count. This is the simulator's hot
// path: everything reachable from here must stay allocation-free outside
// the cold tracing/sampling/fault branches.
//
//lint:hotpath per-cycle simulation loop; allocation here scales with cycles × links
func (s *sim) cycleLoop() (int, error) {
	now := 0
	idle := 0
	for s.pending > 0 {
		now++
		progressed := false
		for i := range s.engineUsed {
			s.engineUsed[i] = 0
		}

		// 0. Fault plan transitions: fail/heal links, start/stop
		//    degradation windows and engine stalls.
		if s.faultsOn {
			s.applyFaults(now)
		}

		// 1. Deliver flits whose pipeline delay expires this cycle.
		for _, l := range s.links {
			for l.pipeHead < len(l.pipeline) && l.pipeline[l.pipeHead].arrive <= now {
				fl := l.pipeline[l.pipeHead]
				l.pipeHead++
				f := fl.f
				if f.lost {
					// The stream already dropped an earlier flit: this one
					// is out of sequence and must not land at the wrong
					// prefix index. Discard; recovery re-issues the range.
					s.result.DroppedFlits++
					l.dropped++
					s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: -1, Value: fl.val, Job: f.j.idx})
					continue
				}
				f.push(fl.val)
				l.curBuf++
				s.result.DeliveredFlits++
				k := f.arrived
				f.arrived++
				if s.faultsOn && f.sentAtLen() > 0 {
					f.popSentAt()
				}
				if s.traced {
					s.emit(TraceEvent{Cycle: now, Kind: TraceArrive, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: k, Value: fl.val, Job: f.j.idx})
				}
				if f.phase == phaseBcast {
					// Local delivery on arrival.
					nt := f.rcv
					s.outputs[f.to][f.j.goff+k] = fl.val
					nt.delivered++
					if s.sampling {
						s.delivered++
					}
					s.pending--
					f.j.remaining--
					s.checkJobDone(f.j, now)
				}
				progressed = true
			}
			if l.pipeHead == len(l.pipeline) && l.pipeHead > 0 {
				l.pipeline = l.pipeline[:0]
				l.pipeHead = 0
			}
		}

		// 1b. Loss detection and recovery: virtual channels whose oldest
		//     outstanding flit is overdue identify failed links; the trees
		//     crossing them abort and re-issue over the survivors.
		if s.faultsOn && !s.cfg.DisableRecovery {
			recovered, err := s.detectAndRecover(now)
			if err != nil {
				return 0, err
			}
			if recovered {
				progressed = true
			}
		}

		// 2. Root reduction engines run at link rate.
		before := s.pending
		s.rootCompute(now)
		if s.pending != before {
			progressed = true
		}

		// 3. Credit release from receiver progress.
		s.updateConsumed()

		// 4. Link arbitration: LinkBandwidth flits per directed link per
		//    cycle (default 1), round-robin over virtual channels with
		//    data and credit.
		linkBW := s.cfg.LinkBandwidth
		if linkBW == 0 {
			linkBW = 1
		}
		for _, l := range s.links {
			if l.degraded {
				// Token bucket: refill at the degraded rate, burst capped
				// so idle cycles cannot bank unbounded credit.
				l.degBudget += l.degRate
				if burst := maxf(1, l.degRate); l.degBudget > burst {
					l.degBudget = burst
				}
			}
			nf := len(l.flows)
			sentThisCycle := 0
			for i := 0; i < nf && sentThisCycle < linkBW; i++ {
				if l.degraded && l.degBudget < 1 {
					break // metered out this cycle
				}
				f := l.flows[(l.rr+i)%nf]
				if f.sent >= f.m {
					continue // stream finished
				}
				if s.senderReady(f) <= f.sent {
					continue // nothing to send yet
				}
				if f.sent-f.consumed >= s.cfg.VCDepth {
					s.noteStall(l, f, now)
					continue // no credit
				}
				if f.phase == phaseReduce && s.faultsOn && s.stalled[f.from] &&
					len(f.snd.redIn) > 0 {
					continue // combining engine frozen by an engine-stall fault
				}
				if f.phase == phaseReduce && s.cfg.EngineRate > 0 {
					// A non-leaf sender combines child flits as it
					// transmits — that production consumes engine slots.
					if len(f.snd.redIn) > 0 {
						if s.engineUsed[f.from] >= s.cfg.EngineRate {
							continue
						}
						s.engineUsed[f.from]++
					}
				}
				val := s.flitValue(f, f.sent)
				f.sent++
				if s.faultsOn {
					f.pushSentAt(now, s.cfg.VCDepth)
				}
				s.result.FlitsSent++
				if s.sampling && f.phase == phaseReduce {
					s.reduceFlits++
				}
				if s.traced {
					s.emit(TraceEvent{Cycle: now, Kind: TraceSend, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: f.sent - 1, Value: val, Job: f.j.idx})
				}
				if l.failed {
					// The physical layer fails silently: the sender spends
					// its cycle, the flit evaporates, the stream is broken.
					f.lost = true
					s.result.DroppedFlits++
					l.dropped++
					s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: f.sent - 1, Value: val, Job: f.j.idx})
				} else {
					l.pipePush(inflight{f: f, val: val, arrive: now + s.cfg.LinkLatency})
				}
				if l.degraded {
					l.degBudget--
				}
				l.rr = (l.rr + i + 1) % nf
				sentThisCycle++
				progressed = true
				// Restart the round-robin scan so fairness is preserved
				// across the remaining budget.
				i = -1
				nf = len(l.flows)
			}
			l.flits += sentThisCycle
			if sentThisCycle > 0 {
				l.busyCycles++
			}
		}

		// Track peak buffering (globally and per link) for the
		// resource-requirement discussion, and publish occupancy changes
		// to the trace. Occupancy is maintained incrementally on push and
		// retire, so this pass reads one counter per link.
		buffered := 0
		for _, l := range s.links {
			lb := l.curBuf
			buffered += lb
			if lb > l.peakBuf {
				l.peakBuf = lb
			}
			if lb != l.lastBuf {
				l.lastBuf = lb
				s.emit(TraceEvent{Cycle: now, Kind: TraceBufferOccupancy,
					Tree: -1, Phase: -1, From: l.from, To: l.to, Flit: -1, Value: int64(lb), Job: -1})
			}
		}
		if buffered > s.result.PeakBufferFlits {
			s.result.PeakBufferFlits = buffered
		}

		// Telemetry sample boundary: hand the cumulative counters to the
		// hook. Cold unless sampling is enabled, and O(links) only at
		// boundary cycles.
		if s.sampling && now >= s.nextSample {
			s.sampleNow(now, false)
			s.nextSample = now + s.cfg.SampleEvery
		}

		if progressed {
			idle = 0
		} else {
			idle++
			if idle > s.cfg.ProgressTimeout {
				return 0, s.progressError(now, idle)
			}
		}
	}
	return now, nil
}

// finalize runs the post-loop invariant checks and assembles the Result.
// It is off the hot path: per-link summaries may allocate freely.
func (s *sim) finalize(now int) (*Result, error) {
	s.result.Cycles = now

	// Final telemetry frame: closes the partial tail window and flushes
	// downsampling accumulators. Emitted even when the last cycle was a
	// boundary — consumers treat a zero-duration final frame as a flush
	// marker.
	if s.sampling {
		s.sampleNow(now, true)
	}

	// Post-run invariants: every stream fully drained, no flit stranded in
	// a pipeline or buffer, all credits returned. A violation indicates a
	// simulator bug, not a workload property, so it is an error.
	s.updateConsumed()
	for _, l := range s.links {
		if l.pipeLen() != 0 {
			return nil, fmt.Errorf("netsim: internal: %d flits stranded in a link pipeline", l.pipeLen())
		}
		for _, f := range l.flows {
			if f.sent != f.m || f.arrived != f.m {
				return nil, fmt.Errorf("netsim: internal: flow tree=%d phase=%d %d→%d ended at sent=%d arrived=%d of %d",
					f.tree, f.phase, f.from, f.to, f.sent, f.arrived, f.m)
			}
			if f.consumed != f.m || f.bufLen() != 0 {
				return nil, fmt.Errorf("netsim: internal: flow tree=%d %d→%d left %d flits buffered",
					f.tree, f.from, f.to, f.bufLen())
			}
		}
	}

	// Flit conservation: every link transmission ends exactly once, as an
	// accepted arrival or as one of the four drop sites (injection into a
	// failed link, pipeline purge at fault activation, out-of-sequence
	// discard, abort purge at recovery).
	if s.result.FlitsSent != s.result.DeliveredFlits+s.result.DroppedFlits {
		return nil, fmt.Errorf("netsim: internal: flit conservation violated: sent=%d delivered=%d dropped=%d",
			s.result.FlitsSent, s.result.DeliveredFlits, s.result.DroppedFlits)
	}

	s.result.Outputs = s.outputs
	s.result.Arena = s.arenaFootprint()

	// Post-recovery bandwidth: the work outstanding at the last recovery
	// over the cycles the survivors took to finish it.
	if nr := len(s.result.Recoveries); nr > 0 {
		last := s.result.Recoveries[nr-1]
		if s.result.Cycles > last.Cycle {
			s.result.PostRecoveryBW = float64(last.Remaining) / float64(s.result.Cycles-last.Cycle)
		}
	}

	// Per-link summary; s.links is already in (from, to) order.
	s.result.LinkStats = make([]LinkStat, 0, len(s.links))
	for _, l := range s.links {
		treeSet := make(map[int]bool)
		for _, f := range l.flows {
			treeSet[f.tree] = true
		}
		ls := LinkStat{
			From: l.from, To: l.to,
			Flits:           l.flits,
			BusyCycles:      l.busyCycles,
			StallCycles:     l.stallCycles,
			Dropped:         l.dropped,
			PeakBufferFlits: l.peakBuf,
			Trees:           len(treeSet),
		}
		if now > 0 {
			ls.Utilization = float64(l.busyCycles) / float64(now)
		}
		s.result.LinkStats = append(s.result.LinkStats, ls)
	}
	return &s.result, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ExpectedOutput computes the reference element-wise sum of the inputs,
// for verification.
func ExpectedOutput(inputs [][]int64) []int64 {
	if len(inputs) == 0 {
		return nil
	}
	out := make([]int64, len(inputs[0]))
	for _, in := range inputs {
		for k, v := range in {
			out[k] += v
		}
	}
	return out
}

// UsedDirectedLinks returns the number of distinct directed links carrying
// at least one flow — a sanity statistic for embeddings.
func UsedDirectedLinks(spec Spec) int {
	seen := make(map[[2]int]bool)
	for _, t := range spec.Forest {
		for v, p := range t.Parent {
			if p >= 0 {
				seen[[2]int{v, p}] = true
				seen[[2]int{p, v}] = true
			}
		}
	}
	return len(seen)
}
