package netsim

import "unsafe"

// ArenaFootprint itemises the simulator's dominant steady-state
// allocations — the arenas sized at construction time that bound a run's
// memory: per-(job, node) tree state, the flow blocks with their VC
// receive buffers, the link records with their pipeline rings, the
// shared output matrix, and (when the event loop was selected) the
// wake-set machinery. The numbers are computed from structure counts and
// capacities, so the footprint is a pure function of (Spec, Config) and
// the q=127 smoke can gate on a deterministic ceiling instead of process
// RSS.
type ArenaFootprint struct {
	// Links and Flows count directed links and registered flow streams
	// (recovery re-issues included).
	Links int
	Flows int
	// NodeTreeBytes is the per-(job, node) tree state, including the
	// redIn/bcastOut child-pointer slices.
	NodeTreeBytes int64
	// FlowBytes is the contiguous per-job flow blocks plus the per-link
	// registration pointers.
	FlowBytes int64
	// VCBufferBytes is the credit-capped receive windows (VCDepth flits
	// of 8 bytes per flow).
	VCBufferBytes int64
	// LinkBytes is the link records and the frozen link/CSR indexes.
	LinkBytes int64
	// PipelineBytes is the in-flight rings (LinkBandwidth × LinkLatency
	// slots per link).
	PipelineBytes int64
	// OutputBytes is the shared n×m result matrix.
	OutputBytes int64
	// EventBytes is the event loop's wake sets, timing wheel, and
	// retirement queues. It is non-zero exactly when newSim selected the
	// event loop (see eventLoopFits) and zero on cycle-loop runs.
	EventBytes int64
	// TotalBytes sums every component above.
	TotalBytes int64
}

// bytes is the linkSet's backing storage: three bitmap levels.
func (b *linkSet) bytes() int64 {
	return int64(len(b.l0)+len(b.l1)+len(b.l2)) * 8
}

// footprint sizes the event-loop state machine.
func (ev *evState) footprint() int64 {
	setSz := int64(unsafe.Sizeof(linkSet{}))
	total := int64(unsafe.Sizeof(evState{}))
	for i := range ev.wheel {
		total += setSz + ev.wheel[i].bytes()
	}
	total += int64(len(ev.wheelDue)) * 8
	total += ev.arb[0].bytes() + ev.arb[1].bytes() + ev.occ.bytes()
	total += int64(len(ev.scratch)) * 4
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	total += int64(cap(ev.conNow)+cap(ev.conNext)) * ptr
	return total
}

// arenaFootprint walks the frozen simulator and tallies the arenas. Cold:
// called once from finalize.
func (s *sim) arenaFootprint() ArenaFootprint {
	var a ArenaFootprint
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	linkSz := int64(unsafe.Sizeof(link{}))
	inflSz := int64(unsafe.Sizeof(inflight{}))
	flowSz := int64(unsafe.Sizeof(flow{}))
	ntSz := int64(unsafe.Sizeof(nodeTree{}))

	a.Links = len(s.links)
	a.LinkBytes = int64(len(s.links))*(linkSz+ptr) + int64(len(s.rowStart))*4
	for _, l := range s.links {
		a.Flows += len(l.flows)
		a.FlowBytes += int64(cap(l.flows)) * ptr
		a.PipelineBytes += int64(cap(l.pipeline)) * inflSz
		for _, f := range l.flows {
			a.FlowBytes += flowSz
			a.VCBufferBytes += int64(cap(f.buf)) * 8
		}
	}
	for _, j := range s.jobs {
		a.NodeTreeBytes += int64(len(j.nodes)) * ntSz
		for v := range j.nodes {
			nt := &j.nodes[v]
			a.NodeTreeBytes += int64(cap(nt.redIn)+cap(nt.bcastOut)) * ptr
		}
	}
	a.OutputBytes = int64(s.n) * int64(s.m) * 8
	if s.ev != nil {
		a.EventBytes = s.ev.footprint()
	}
	a.TotalBytes = a.NodeTreeBytes + a.FlowBytes + a.VCBufferBytes +
		a.LinkBytes + a.PipelineBytes + a.OutputBytes + a.EventBytes
	return a
}
