// Package critpath reconstructs the causal dependency chain of a netsim
// run from its trace stream and attributes every cycle of the completion
// time to a blame class. The headline invariant is exact conservation:
// walking backwards from the last delivery event to cycle 0 yields a
// telescoping sequence of path segments whose cycle counts sum to the
// run's Result.Cycles with zero tolerance.
//
// The causal model mirrors the simulator's per-cycle ordering. A flit's
// arrival depends on its send one link latency earlier; a send depends
// on the flit's payload becoming available at the sender (the slowest
// child arrival for a reduce stream, the parent arrival for a broadcast
// stream, the root engine's compute for the root's broadcast, or the
// job's birth for a leaf); a root compute depends on the slowest child
// arrival and on the engine's previous output; a re-issued job's birth
// depends on the recovery round that created it, the recovery on the
// fault that triggered it, and the fault bridges back into the doomed
// stream's pre-fault history. Cycles between a node and its predecessor
// are classified per cycle: a recorded credit stall blames the VC window,
// a link busy with the same stream blames serialization, a link busy
// with another stream blames congestion, and the (fault, recovery]
// interval splits into detection latency and re-split cost. Anything the
// model cannot explain is counted as unattributed residue — the perf
// gate fails when it is non-zero.
package critpath

import (
	"fmt"
	"sort"

	"polarfly/internal/faults"
	"polarfly/internal/netsim"
)

// Class is one blame category of the critical-path taxonomy.
type Class int

const (
	// ClassCompute blames the reduction engine: gaps between a root
	// flit's inputs being ready and the engine emitting it (the engine
	// runs at link rate, one flit per job per cycle).
	ClassCompute Class = iota
	// ClassSerialization blames the wire: a flit's link-latency flight
	// time, its own injection slot, and cycles the link spent injecting
	// earlier flits of the same stream.
	ClassSerialization
	// ClassCongestion blames VC contention: cycles the link's injection
	// slot went to a different stream (another tree, phase, or job).
	ClassCongestion
	// ClassCreditStall blames the credit window: cycles the sender had
	// data ready but VCDepth flits were already outstanding.
	ClassCreditStall
	// ClassFaultDetect blames detection latency: the slice of a
	// (fault, recovery] interval up to the timeout deadline
	// (netsim.DetectDeadline).
	ClassFaultDetect
	// ClassRecovery blames the re-split: the remainder of a
	// (fault, recovery] interval beyond the detection deadline.
	ClassRecovery
	// ClassUnattributed is the residue: cycles the causal model could
	// not explain (degraded-link metering, engine-stall freezes and
	// EngineRate caps leave no trace event). The gate fails on any.
	ClassUnattributed

	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassSerialization:
		return "serialization"
	case ClassCongestion:
		return "congestion"
	case ClassCreditStall:
		return "credit-stall"
	case ClassFaultDetect:
		return "fault-detect"
	case ClassRecovery:
		return "recovery"
	case ClassUnattributed:
		return "unattributed"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists every blame class in canonical order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

const (
	phaseReduce = 0
	phaseBcast  = 1
)

// streamKey identifies one virtual-channel stream. Job (the simulator's
// creation index) disambiguates recovery re-issues, which reuse a
// (tree, phase, from, to) identity with flit indices restarting at 0.
type streamKey struct{ job, from, to, phase int }

// stream accumulates one VC's event history: per-flit send and arrival
// cycles and the cycles it reported credit stalls.
type stream struct {
	id      int32
	key     streamKey
	tree    int
	sends   []int32 // flit → injection cycle, -1 unseen
	arrives []int32 // flit → delivery cycle, -1 unseen
	stalls  []int32 // ascending stall cycles, deduplicated
}

// linkLog is the per-directed-link injection history: one (cycle, stream)
// entry per send, in emission order (cycles non-decreasing).
type linkLog struct {
	cycles  []int32
	streams []int32 // stream ids, parallel to cycles
}

// sendAt reports the stream that injected on the link at cycle g, or -1.
func (ll *linkLog) sendAt(g int) int32 {
	if ll == nil {
		return -1
	}
	i := sort.Search(len(ll.cycles), func(i int) bool { return ll.cycles[i] >= int32(g) })
	if i < len(ll.cycles) && ll.cycles[i] == int32(g) {
		return ll.streams[i]
	}
	return -1
}

// jobInfo is the per-job view: its tree, root (learned from compute
// events) and per-flit root-compute cycles.
type jobInfo struct {
	tree     int
	root     int // -1 until a compute event names it
	computes []int32
}

// faultMark records one TraceFault event; kind carries the fault's
// faults.Kind (the simulator emits it in TraceEvent.Phase) so recovery
// pairing can skip marks that cannot have triggered a timeout.
type faultMark struct{ cycle, u, v, kind int }

// lossyFault reports whether a fault mark's kind drops flits and can
// therefore trigger a recovery round.
func lossyFault(kind int) bool { return faults.Kind(kind).Lossy() }

type recoverMark struct {
	cycle, u, v int
	firstJob    int // index of the first job the round re-issued
	reissued    int
}

// Builder consumes a netsim trace stream and indexes it for Analyze.
// Attach it with Attach (chaining any existing hook) or feed Observe
// directly; events must arrive in the simulator's deterministic order.
type Builder struct {
	linkLatency int

	streams  []*stream
	streamID map[streamKey]int32
	links    map[[2]int]*linkLog
	jobs     []*jobInfo
	faults   []faultMark
	recovers []recoverMark

	// Completion candidate: the earliest-observed delivery event
	// (broadcast arrival or root compute) at the highest cycle.
	haveDone   bool
	doneCycle  int
	doneArrive bool  // true: arrival on doneStream; false: compute on doneJob
	doneStream int32 //
	doneJob    int
	doneFlit   int
}

// NewBuilder returns an empty builder with LinkLatency 1; Attach
// overrides it from the run's Config. The fault detection deadline is
// netsim.DetectDeadline of that latency.
func NewBuilder() *Builder {
	return &Builder{
		linkLatency: 1,
		streamID:    make(map[streamKey]int32),
		links:       make(map[[2]int]*linkLog),
	}
}

// Attach hooks the builder into a simulation config, chaining any trace
// hook already installed, and adopts the config's link latency. Call
// before netsim.Run.
func (b *Builder) Attach(cfg *netsim.Config) {
	if cfg.LinkLatency >= 1 {
		b.linkLatency = cfg.LinkLatency
	}
	prev := cfg.Trace
	cfg.Trace = func(ev netsim.TraceEvent) {
		b.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
}

func (b *Builder) stream(ev netsim.TraceEvent) *stream {
	key := streamKey{job: ev.Job, from: ev.From, to: ev.To, phase: ev.Phase}
	if id, ok := b.streamID[key]; ok {
		return b.streams[id]
	}
	s := &stream{id: int32(len(b.streams)), key: key, tree: ev.Tree}
	b.streamID[key] = s.id
	b.streams = append(b.streams, s)
	return s
}

func (b *Builder) job(idx int) *jobInfo {
	for len(b.jobs) <= idx {
		b.jobs = append(b.jobs, &jobInfo{root: -1})
	}
	return b.jobs[idx]
}

// setAt grows sl so index idx holds cycle, filling skipped slots with -1.
func setAt(sl *[]int32, idx, cycle int) {
	for len(*sl) <= idx {
		*sl = append(*sl, -1)
	}
	(*sl)[idx] = int32(cycle)
}

// Observe consumes one trace event.
func (b *Builder) Observe(ev netsim.TraceEvent) {
	switch ev.Kind {
	case netsim.TraceSend:
		s := b.stream(ev)
		setAt(&s.sends, ev.Flit, ev.Cycle)
		key := [2]int{ev.From, ev.To}
		ll, ok := b.links[key]
		if !ok {
			ll = &linkLog{}
			b.links[key] = ll
		}
		ll.cycles = append(ll.cycles, int32(ev.Cycle))
		ll.streams = append(ll.streams, s.id)
	case netsim.TraceArrive:
		s := b.stream(ev)
		setAt(&s.arrives, ev.Flit, ev.Cycle)
		if ev.Phase == phaseBcast {
			b.noteDelivery(ev.Cycle, true, s.id, ev.Job, ev.Flit)
		}
	case netsim.TraceStall:
		s := b.stream(ev)
		if n := len(s.stalls); n == 0 || s.stalls[n-1] != int32(ev.Cycle) {
			s.stalls = append(s.stalls, int32(ev.Cycle))
		}
	case netsim.TraceRootCompute:
		j := b.job(ev.Job)
		j.tree = ev.Tree
		j.root = ev.From
		setAt(&j.computes, ev.Flit, ev.Cycle)
		b.noteDelivery(ev.Cycle, false, -1, ev.Job, ev.Flit)
	case netsim.TraceFault:
		b.faults = append(b.faults, faultMark{cycle: ev.Cycle, u: ev.From, v: ev.To, kind: ev.Phase})
	case netsim.TraceRecover:
		b.recovers = append(b.recovers, recoverMark{
			cycle: ev.Cycle, u: ev.From, v: ev.To,
			firstJob: ev.Job, reissued: ev.Flit,
		})
	case netsim.TraceDrop, netsim.TraceBufferOccupancy:
		// Drops are causally represented by the fault bridge; occupancy
		// is a per-link gauge with no dependency edge.
	}
}

// noteDelivery tracks the completion event: the first-observed delivery
// (broadcast arrival or root compute) at the highest cycle. The trace
// stream is deterministic, so the choice is too.
func (b *Builder) noteDelivery(cycle int, arrive bool, sid int32, job, flit int) {
	if b.haveDone && cycle <= b.doneCycle {
		return
	}
	b.haveDone = true
	b.doneCycle = cycle
	b.doneArrive = arrive
	b.doneStream = sid
	b.doneJob = job
	b.doneFlit = flit
}

// birth returns the cycle job idx came into existence: 0 for the initial
// per-tree jobs, the recovery round's cycle for re-issues. The second
// result is the index of the creating recovery round, -1 for initial
// jobs.
func (b *Builder) birth(idx int) (int, int) {
	for i := len(b.recovers) - 1; i >= 0; i-- {
		if b.recovers[i].firstJob <= idx {
			return b.recovers[i].cycle, i
		}
	}
	return 0, -1
}

// containsCycle reports whether the ascending slice holds cycle g.
func containsCycle(sl []int32, g int) bool {
	i := sort.Search(len(sl), func(i int) bool { return sl[i] >= int32(g) })
	return i < len(sl) && sl[i] == int32(g)
}
