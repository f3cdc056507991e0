package netsim

// Streaming telemetry sampling: every Config.SampleEvery cycles the
// simulator hands a SampleFrame of cumulative counters to the
// Config.Sample hook. The frame is a snapshot of counters the cycle loop
// maintains anyway (or keeps only when sampling is on), so the fault-free
// fast path pays nothing when the hook is absent — the same contract the
// traced flag gives Config.Trace — and a sampling run allocates only the
// fixed scratch frame at construction, never per cycle.
//
// Consumers (internal/tsdb) difference successive frames into fixed-size
// windows, so everything here is cumulative and monotonic: window values
// are exact counter deltas and per-link window sums reconcile exactly
// against the end-of-run Result.LinkStats.

// LinkCounters is the cumulative per-directed-link telemetry at a sample
// boundary. All counters are since cycle 0.
type LinkCounters struct {
	// From and To identify the directed link (same order as
	// Result.LinkStats).
	From, To int
	// Flits is the number of flits injected into the link.
	Flits int
	// BusyCycles counts cycles with an injection; it equals Flits.
	BusyCycles int
	// StallCycles counts cycles with at least one credit-stalled VC.
	StallCycles int
	// Dropped counts flits destroyed on this link by faults: purged from
	// the pipeline at activation, swallowed at injection, discarded on
	// broken-stream arrival, or purged when their tree was aborted.
	Dropped int
	// Buffered is the current total receive-buffer occupancy across the
	// link's virtual channels (a gauge, not a counter).
	Buffered int
	// PeakBuffered is the maximum Buffered observed so far.
	PeakBuffered int
}

// RunCounters is the cumulative run-level telemetry at a sample boundary.
type RunCounters struct {
	// FlitsSent mirrors Result.FlitsSent: total link injections.
	FlitsSent int
	// ReduceFlits and BcastFlits split FlitsSent by phase.
	ReduceFlits int
	BcastFlits  int
	// Delivered counts completed target deliveries: outputs of the root engines
	// plus broadcast arrivals. A fault-free OpAllreduce run ends with
	// N·m delivered.
	Delivered int
	// Dropped mirrors Result.DroppedFlits.
	Dropped int
	// Reissued is the total number of vector elements re-issued over
	// surviving trees by recovery rounds so far.
	Reissued int
	// Recoveries is the number of recovery rounds completed so far.
	Recoveries int
	// LastFaultCycle is the activation cycle of the most recent fault
	// from the plan (-1 before any fault activates). LastRecoverCycle is
	// the cycle of the most recent recovery round (-1 before any). They
	// are last-event-timestamp gauges: a telemetry consumer detects fault
	// onset and measures recovery latency from their transitions alone,
	// without access to the trace stream.
	LastFaultCycle   int
	LastRecoverCycle int
	// BufferedFlits is the current total buffered flits across all
	// virtual channels; PeakBufferFlits the maximum so far.
	BufferedFlits   int
	PeakBufferFlits int
}

// SampleFrame is one telemetry sample, delivered to Config.Sample at
// every SampleEvery-cycle boundary and once more after the run completes.
// The frame and its Links slice are reused between calls — the hook must
// copy anything it retains.
type SampleFrame struct {
	// Cycle is the simulated cycle the frame describes.
	Cycle int
	// Final marks the post-run frame. Its Cycle is the run's last cycle,
	// which may coincide with the previous boundary frame; consumers
	// treat a zero-duration final frame as a flush marker.
	Final bool
	// Links holds the cumulative per-link counters, ordered by (From,
	// To) exactly like Result.LinkStats.
	Links []LinkCounters
	// Run holds the cumulative run-level counters.
	Run RunCounters
}

// initSampling allocates the reusable sample frame. Called at freeze
// time, after the deterministic link order exists; the per-link slice is
// the only allocation sampling ever makes.
func (s *sim) initSampling() {
	s.sampling = s.cfg.Sample != nil
	s.lastFaultCycle = -1
	s.lastRecoverCycle = -1
	if !s.sampling {
		return
	}
	s.sampleScratch = make([]LinkCounters, len(s.links))
	for i, l := range s.links {
		s.sampleScratch[i].From = l.from
		s.sampleScratch[i].To = l.to
	}
	s.sampleFrame.Links = s.sampleScratch
	s.nextSample = s.cfg.SampleEvery
}

// sampleNow fills the scratch frame from the live counters and hands it
// to the hook. O(links), runs only at sample boundaries.
func (s *sim) sampleNow(now int, final bool) {
	buffered := 0
	for i, l := range s.links {
		c := &s.sampleScratch[i]
		c.Flits = l.flits
		c.BusyCycles = l.flits
		c.StallCycles = l.stallCycles
		c.Dropped = l.dropped
		c.Buffered = l.curBuf
		c.PeakBuffered = l.peakBuf
		buffered += l.curBuf
	}
	s.sampleFrame.Cycle = now
	s.sampleFrame.Final = final
	s.sampleFrame.Run = RunCounters{
		FlitsSent:        s.result.FlitsSent,
		ReduceFlits:      s.reduceFlits,
		BcastFlits:       s.result.FlitsSent - s.reduceFlits,
		Delivered:        s.delivered,
		Dropped:          s.result.DroppedFlits,
		Reissued:         s.reissuedTotal,
		Recoveries:       len(s.result.Recoveries),
		LastFaultCycle:   s.lastFaultCycle,
		LastRecoverCycle: s.lastRecoverCycle,
		BufferedFlits:    buffered,
		PeakBufferFlits:  s.result.PeakBufferFlits,
	}
	s.cfg.Sample(&s.sampleFrame)
}
