// Package netsim is a cycle-accurate simulator of the in-network Allreduce
// router architecture described in §4.4 of the paper (modelled on Intel
// PIUMA and Mellanox SHARP):
//
//   - every undirected topology link is two directed links of bandwidth one
//     element ("flit") per cycle and a fixed pipeline latency;
//   - each embedded tree gets its own virtual channel on every link it
//     uses, with a finite buffer and credit-based flow control (§5.1);
//   - routers carry a pipelined reduction engine that can serve multiple
//     trees at link rate (§5.1: overlapping reduction vertices do not limit
//     bandwidth; links do);
//   - a directed link transmits at most one flit per cycle, arbitrating
//     round-robin among virtual channels that have both data and credit —
//     this is where congestion between overlapping trees materialises.
//
// An Allreduce run streams each tree's sub-vector up the tree (reduction),
// combines at the root, and streams the result back down (broadcast), all
// fully pipelined. The simulator moves real values, so tests verify
// end-to-end numerical correctness, and its cycle counts reproduce the
// bandwidth predicted by the Algorithm 1 waterfilling model.
package netsim

import (
	"fmt"

	"polarfly/internal/faults"
	"polarfly/internal/graph"
	"polarfly/internal/trees"
)

// Config sets the hardware parameters of the simulated fabric.
type Config struct {
	// LinkLatency is the pipeline depth of a link in cycles; a flit sent at
	// cycle t is delivered at t + LinkLatency. Must be ≥ 1.
	LinkLatency int
	// VCDepth is the per-(link, tree, phase) receive buffer in flits; the
	// credit loop stalls a sender once VCDepth flits are outstanding
	// (in-flight or buffered). Must be ≥ 1; small values throttle the
	// pipeline when VCDepth < LinkLatency (the latency-bandwidth product
	// argument of §1.2).
	VCDepth int
	// ProgressTimeout aborts the run if no flit moves for this many
	// consecutive cycles (a deadlock diagnostic; the credit protocol is
	// deadlock-free, so hitting it indicates a malformed embedding).
	// Defaults to DefaultProgressTimeout when zero.
	ProgressTimeout int
	// EngineRate caps how many reduction flits a router's arithmetic
	// engine may produce per cycle (combined across all trees reducing at
	// that router, including roots). Zero means unlimited — the §5.1
	// assumption that routers "compute multiple reductions at link rate".
	// Setting it to 1 models a single-output engine and quantifies the
	// arithmetic throughput the multi-tree embeddings actually demand.
	EngineRate int
	// Trace, when non-nil, receives every send/arrive/compute event in
	// deterministic order. Tracing large runs is expensive; intended for
	// debugging and fine-grained analysis. lint:cold
	Trace func(TraceEvent)
	// Faults is the deterministic fault plan injected into the run; nil
	// runs fault-free. Link faults drop flits and (unless DisableRecovery
	// is set) trigger timeout detection and tree-level recovery; degraded
	// links and engine stalls only slow the run down. Fault injection is
	// supported for OpAllreduce only. lint:cold
	Faults *faults.Plan
	// DisableRecovery turns off loss detection and recovery: trees hit by
	// a link fault simply stop making progress, so the run ends in a
	// *ProgressError carrying the stalled-tree diagnostic.
	DisableRecovery bool
	// MaxRecoveries bounds recovery nesting: faults landing while a prior
	// recovery's re-issues are still in flight trigger further recovery
	// rounds, and each round quarantines at least one fresh link, so the
	// natural bound is the link count — this cap turns a pathological
	// schedule into the classified ErrRecoveryLimit sentinel instead of
	// unbounded churn. Defaults to DefaultMaxRecoveries when zero.
	MaxRecoveries int
	// SampleEvery is the telemetry sampling window in cycles: every
	// SampleEvery cycles (and once after the run ends) the Sample hook
	// receives a SampleFrame of cumulative counters. Zero disables
	// sampling; it must be ≥ 1 when Sample is set. Like Trace, the hook
	// is gated so untraced, unsampled runs pay nothing in the cycle loop.
	SampleEvery int
	// Sample, when non-nil, receives the periodic telemetry frames. The
	// frame and its Links slice are reused between calls; the hook must
	// copy anything it retains. Requires SampleEvery ≥ 1. lint:cold
	Sample func(*SampleFrame)
}

// DefaultProgressTimeout is the deadlock-diagnostic threshold applied by
// every entry point when Config.ProgressTimeout is zero.
const DefaultProgressTimeout = 10000

// DefaultMaxRecoveries is the recovery-round cap applied when
// Config.MaxRecoveries is zero — far above the link count of any
// simulated PolarFly, so only a genuinely pathological schedule hits it.
const DefaultMaxRecoveries = 1024

// DetectDeadline is the age, in cycles since injection, beyond which a
// virtual channel's oldest outstanding flit is declared lost. Healthy
// flits always arrive after exactly linkLatency cycles, so the 4·linkLatency
// slack on top can never fire on a healthy link.
func DetectDeadline(linkLatency int) int { return 5 * linkLatency }

// DefaultConfig mirrors a plausible router point: 10-cycle links and
// buffers matching the latency-bandwidth product.
func DefaultConfig() Config {
	return Config{LinkLatency: 10, VCDepth: 10, ProgressTimeout: DefaultProgressTimeout}
}

// validate checks the configuration and fills documented defaults
// (ProgressTimeout) in place, so every entry point shares one source of
// truth for them.
func (c *Config) validate() error {
	if c.LinkLatency < 1 {
		return fmt.Errorf("netsim: LinkLatency must be ≥ 1, got %d", c.LinkLatency)
	}
	if c.VCDepth < 1 {
		return fmt.Errorf("netsim: VCDepth must be ≥ 1, got %d", c.VCDepth)
	}
	if c.EngineRate < 0 {
		return fmt.Errorf("netsim: EngineRate must be ≥ 0, got %d", c.EngineRate)
	}
	if c.ProgressTimeout < 0 {
		return fmt.Errorf("netsim: ProgressTimeout must be ≥ 0, got %d", c.ProgressTimeout)
	}
	if c.ProgressTimeout == 0 {
		c.ProgressTimeout = DefaultProgressTimeout
	}
	if c.MaxRecoveries < 0 {
		return fmt.Errorf("netsim: MaxRecoveries must be ≥ 0, got %d", c.MaxRecoveries)
	}
	if c.MaxRecoveries == 0 {
		c.MaxRecoveries = DefaultMaxRecoveries
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("netsim: SampleEvery must be ≥ 0, got %d", c.SampleEvery)
	}
	if c.Sample != nil && c.SampleEvery == 0 {
		return fmt.Errorf("netsim: Sample hook requires a sampling window; set SampleEvery ≥ 1")
	}
	if c.Sample == nil && c.SampleEvery > 0 {
		return fmt.Errorf("netsim: SampleEvery=%d without a Sample hook to receive frames", c.SampleEvery)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Op selects which collective the embedded trees execute.
type Op int

const (
	// OpAllreduce streams the reduction up each tree and broadcasts the
	// result back down (§4.3) — every node ends with the full sum.
	OpAllreduce Op = iota
	// OpReduce runs only the up-phase: each tree's root ends with the sum
	// of its sub-vector; other nodes receive nothing.
	OpReduce
	// OpBroadcast runs only the down-phase: each tree's root distributes
	// its own input segment to all nodes.
	OpBroadcast
)

func (o Op) String() string {
	switch o {
	case OpAllreduce:
		return "allreduce"
	case OpReduce:
		return "reduce"
	case OpBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Spec describes one collective instance.
type Spec struct {
	// Op is the collective to run; zero value is OpAllreduce.
	Op Op
	// Topology is the physical network; every tree edge must be one of its
	// links.
	Topology *graph.Graph
	// Forest is the set of concurrently executing Allreduce trees.
	Forest []*trees.Tree
	// Split[i] is the number of vector elements assigned to tree i
	// (Theorem 5.1's m_i); the total vector length is the sum.
	Split []int
	// Inputs[v] is node v's full m-element input vector; tree i operates
	// on the contiguous segment [offset_i, offset_i + Split[i]).
	Inputs [][]int64
}

// Result reports a completed simulation. Every field must be a pure
// function of (Spec, Config): runs are bit-reproducible. lint:detsink
type Result struct {
	// Cycles is the completion time: the first cycle by which every node
	// holds the complete reduced vector.
	Cycles int
	// Outputs[v] is node v's assembled m-element result.
	Outputs [][]int64
	// FlitsSent counts total link transmissions (reduction + broadcast).
	FlitsSent int
	// TreeDone[i] is the cycle at which tree i's broadcast finished
	// everywhere.
	TreeDone []int
	// TreeReduceDone[i] is the cycle at which tree i's root computed its
	// final reduced flit — the reduce/broadcast phase boundary. It is -1
	// when the run had no reduce phase (OpBroadcast) and 0 for zero-split
	// trees.
	TreeReduceDone []int
	// PeakBufferFlits is the maximum total buffered flits observed across
	// all virtual channels (a proxy for router SRAM requirements; §5.1
	// motivates minimising congestion to keep this small).
	PeakBufferFlits int
	// LinkStats summarises every directed link, ordered by (From, To).
	// Always populated; the counters cost nothing beyond what the cycle
	// loop already touches.
	LinkStats []LinkStat
	// Arena is the simulator's construction-time memory footprint (see
	// ArenaFootprint). Every component is derived from (Spec, Config);
	// Arena.EventBytes is non-zero exactly when the run was latency-bound
	// enough for newSim to select the event loop.
	Arena ArenaFootprint
	// DroppedFlits counts flits destroyed by link faults: in-flight flits
	// purged at fault activation, injections swallowed by a failed link,
	// out-of-sequence arrivals discarded on broken streams, and flits
	// purged from pipelines when their tree is aborted. Zero on
	// fault-free runs.
	DroppedFlits int
	// DeliveredFlits counts flits accepted into a receive buffer. Every
	// sent flit ends exactly once as an accepted arrival or a drop, so
	// FlitsSent == DeliveredFlits + DroppedFlits on every completed run —
	// finalize asserts the identity and the chaos campaign re-checks it
	// per run.
	DeliveredFlits int
	// DeadTrees lists the forest trees aborted by recovery, sorted.
	DeadTrees []int
	// Recoveries records every recovery round, in cycle order.
	Recoveries []Recovery
	// PostRecoveryBW is the measured aggregate Allreduce bandwidth after
	// the last recovery, in elements per cycle: the number of vector
	// elements not yet complete at every node when recovery fired,
	// divided by the cycles the run took from there. It is the dynamic
	// counterpart of the Algorithm 1 aggregate of the surviving forest
	// (what core.Degrade predicts). Zero when no recovery happened.
	PostRecoveryBW float64
}

// Recovery summarises one recovery round: the detection of lost flits,
// the abort of the trees crossing the suspect links, and the re-issue of
// their unfinished elements over the survivors.
type Recovery struct {
	// Cycle is when loss was detected and the re-issue happened.
	Cycle int
	// FailedLinks are the undirected links whose streams timed out this
	// round, sorted.
	FailedLinks [][2]int
	// DeadTrees are the forest trees aborted this round, sorted.
	DeadTrees []int
	// Reissued is the number of vector elements redistributed over the
	// surviving trees.
	Reissued int
	// Remaining is the number of vector elements not yet complete at
	// every node just after the re-issue — the work the survivors carry.
	Remaining int
	// Generation is the recovery nesting depth: 1 for a round that only
	// aborted initial jobs, 1 + the deepest aborted job's generation when
	// a fault landed on work a prior round had already re-issued (the
	// mid-recovery storm case).
	Generation int
}

// LinkStat is the per-directed-link telemetry summary of one run.
type LinkStat struct {
	// From and To identify the directed link.
	From, To int
	// Flits is the number of flits injected into this link.
	Flits int
	// BusyCycles counts cycles in which the link injected a flit. A link
	// injects at most one flit per cycle, so it always equals Flits; it
	// is kept as the numerator of Utilization.
	BusyCycles int
	// StallCycles counts cycles in which at least one of the link's
	// virtual channels had a flit ready but no credit to send it.
	StallCycles int
	// Dropped counts flits destroyed on this link by faults (zero on
	// fault-free runs); the per-link split of Result.DroppedFlits.
	Dropped int
	// PeakBufferFlits is the maximum simultaneous receive-buffer
	// occupancy across the link's virtual channels.
	PeakBufferFlits int
	// Trees is the number of distinct trees with a stream on this link —
	// the directed congestion the paper's Lemma 7.8 reasons about. It
	// counts the streams the link still holds when the run ends: recovery
	// purges the streams of aborted trees, so on a faulted run it can
	// undercount the congestion the link carried over the whole run.
	Trees int
	// Utilization is BusyCycles divided by the run's total cycles.
	Utilization float64
}

// MaxLinkUtilization returns the highest per-link utilization of the run,
// the measured counterpart of the Algorithm 1 bottleneck prediction.
func (r *Result) MaxLinkUtilization() float64 {
	max := 0.0
	for _, ls := range r.LinkStats {
		if ls.Utilization > max {
			max = ls.Utilization
		}
	}
	return max
}

// phase of a flow.
const (
	phaseReduce = iota
	phaseBcast
)

// flow is one virtual channel: a (directed link, job, phase) stream.
type flow struct {
	j     *job
	tree  int // == j.tree, denormalised for the trace hot path
	phase int
	from  int
	to    int
	m     int // flits in this stream

	// snd and rcv are the sender's and receiver's per-job node state,
	// resolved once at stream construction so the cycle loop never chases
	// j.nodes indices.
	snd *nodeTree
	rcv *nodeTree

	// ln is the directed link carrying this stream, resolved at stream
	// construction so the event loop can wake a flow's link without a
	// topology lookup.
	ln *link

	sent     int // flits injected by the sender
	arrived  int // flits delivered to the receiver buffer
	consumed int // flits retired from the receiver buffer (credits freed)

	// stallCycle is the last cycle a credit stall was recorded for this
	// stream, so each (stream, cycle) stalls at most once even though the
	// arbitration scan may revisit the flow.
	stallCycle int

	// consumeMark is the cycle this flow was last queued for a retirement
	// check by the event loop (deduplicates the consume work lists; the
	// cycle loop never reads it).
	consumeMark int

	// buf holds values for flits [bufBase, bufBase+bufLen()) at positions
	// buf[bufHead:]. Retiring flits advances bufHead instead of reslicing,
	// so one fixed VCDepth-capacity array (carved from the job's shared
	// block) lasts the whole run: credit flow bounds occupancy by VCDepth,
	// and push compacts retired space back to the front before appending.
	buf     []int64
	bufHead int
	bufBase int

	// Fault bookkeeping, maintained only when a fault plan is present.
	// sentAt records the injection cycle of every outstanding flit (FIFO:
	// append on send, pop on accepted arrival, head-indexed like buf; the
	// credit window bounds it by VCDepth entries); lost marks a stream
	// that dropped a flit, so later arrivals are discarded rather than
	// pushed at the wrong prefix index.
	sentAt     []int
	sentAtHead int
	lost       bool // lint:cold: set only under an active fault plan
}

// pushSentAt records an injection cycle, allocating the fixed VCDepth
// window on first use (fault-plan runs only) and compacting popped space
// so the array never grows.
func (f *flow) pushSentAt(now, vcDepth int) {
	if f.sentAt == nil {
		f.sentAt = make([]int, 0, vcDepth)
	}
	if len(f.sentAt) == cap(f.sentAt) && f.sentAtHead > 0 {
		n := copy(f.sentAt, f.sentAt[f.sentAtHead:])
		f.sentAt = f.sentAt[:n]
		f.sentAtHead = 0
	}
	f.sentAt = append(f.sentAt, now)
}

// popSentAt retires the oldest outstanding injection cycle.
func (f *flow) popSentAt() {
	f.sentAtHead++
	if f.sentAtHead == len(f.sentAt) {
		f.sentAt = f.sentAt[:0]
		f.sentAtHead = 0
	}
}

// sentAtLen is the number of outstanding injection records; oldestSentAt
// is only valid when it is non-zero.
func (f *flow) sentAtLen() int    { return len(f.sentAt) - f.sentAtHead }
func (f *flow) oldestSentAt() int { return f.sentAt[f.sentAtHead] }

func (f *flow) push(v int64) {
	if len(f.buf) == cap(f.buf) && f.bufHead > 0 {
		n := copy(f.buf, f.buf[f.bufHead:])
		f.buf = f.buf[:n]
		f.bufHead = 0
	}
	f.buf = append(f.buf, v)
}

func (f *flow) at(k int) int64 { return f.buf[f.bufHead+k-f.bufBase] }

// bufLen is the number of buffered (arrived, unretired) flits.
func (f *flow) bufLen() int { return len(f.buf) - f.bufHead }

func (f *flow) dropTo(k int) {
	if k > f.bufBase {
		f.bufHead += k - f.bufBase
		f.bufBase = k
		if f.bufHead == len(f.buf) {
			f.buf = f.buf[:0]
			f.bufHead = 0
		}
	}
}

// inflight is a flit inside a link pipeline.
type inflight struct {
	f      *flow
	val    int64
	arrive int
}

// link is one directed physical link with its VCs and arbitration state.
type link struct {
	from, to int
	id       int32 // index in sim.links, assigned at freeze (event-loop wake sets)
	flows    []*flow
	rr       int // round-robin pointer

	// pipeline[pipeHead:] are the in-flight flits in arrival order.
	// Delivery advances pipeHead; injection compacts retired space and
	// appends, so the LinkLatency capacity allocated at freeze time (one
	// injection per cycle, each airborne LinkLatency cycles) is never
	// outgrown.
	pipeline []inflight
	pipeHead int

	// curBuf is the current total receive-buffer occupancy across the
	// link's virtual channels, maintained incrementally (push/retire) so
	// the per-cycle occupancy pass does not rescan every flow.
	curBuf int

	// Fault state: failed links swallow injections and deliver nothing;
	// degraded links meter injections through a token bucket refilled at
	// degRate flits per cycle.
	failed    bool // lint:cold
	degraded  bool // lint:cold
	degRate   float64
	degBudget float64

	// Telemetry accumulators for Result.LinkStats. flits is also the
	// link's busy-cycle count: it injects at most one flit per cycle.
	flits       int
	stallCycles int
	stallMark   int // last cycle counted in stallCycles
	peakBuf     int
	lastBuf     int // occupancy at the end of the previous cycle
	dropped     int // flits destroyed on this link by faults
}

// pipeLen is the number of in-flight flits.
func (l *link) pipeLen() int { return len(l.pipeline) - l.pipeHead }

// pipePush appends an in-flight flit, compacting delivered space first so
// the backing array never grows past its freeze-time capacity.
func (l *link) pipePush(fl inflight) {
	if len(l.pipeline) == cap(l.pipeline) && l.pipeHead > 0 {
		n := copy(l.pipeline, l.pipeline[l.pipeHead:])
		l.pipeline = l.pipeline[:n]
		l.pipeHead = 0
	}
	l.pipeline = append(l.pipeline, fl)
}

// job is one pipelined sub-vector collective riding one forest tree: a
// contiguous range [goff, goff+m) of the global vector, with per-node
// dataflow state and a flow per tree edge per phase. The initial jobs are
// the Equation 2 split, one per tree; recovery appends new jobs when a
// dead tree's unfinished range is re-issued over the survivors.
type job struct {
	idx  int // simulator-wide creation index (the trace stream's Job)
	tree int // forest tree carrying this job
	goff int // global offset of the first element
	m    int // elements carried

	nodes []nodeTree // per-vertex state, one contiguous block
	dead  bool       // aborted by recovery; its flows are purged
	done  bool       // all nodes delivered their targets
	gen   int        // recovery generation: 0 initial, else creating round's depth

	// remaining is the sum of target−delivered over all nodes, kept in
	// step with s.pending so completion checks are O(1) per delivery
	// instead of an O(n) node scan.
	remaining int
}

// nodeTree is the per-(node, job) dataflow state.
type nodeTree struct {
	parent   int
	seg      []int64 // this node's input segment
	redIn    []*flow // reduce flows from children
	redOut   *flow   // reduce flow to parent (nil at root)
	bcastIn  *flow   // broadcast flow from parent (nil at root)
	bcastOut []*flow // broadcast flows to children

	// Root only: the pipelined reduction engine output. Aliases the root's
	// outputs row for the job's global range — engine output and local
	// delivery were always the same values at the same cycles, so they
	// share storage and recovery re-issues allocate nothing.
	rootResult   []int64
	rootComputed int

	delivered int
	target    int // flits this node must deliver for its job to finish

	// Incremental minima maintained by the event loop only (the cycle
	// loop recomputes these scans in place and never reads them):
	// redMin/redMinCnt track min and count-at-min over redIn[].arrived;
	// bcastMin/bcastMinCnt track the same over bcastOut[].sent. Each
	// underlying counter only ever advances by one, so when the count at
	// the minimum drains to zero the new minimum is exactly min+1 and an
	// O(degree) recount restores the census.
	redMin      int
	redMinCnt   int
	bcastMin    int
	bcastMinCnt int
}
