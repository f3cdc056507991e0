package netsim

// The event loop reproduces the cycle loop's semantics while skipping
// cycles in which nothing can change. It rests on one observation about
// the reference loop: a link that has no deliverable flit, no sendable
// flow and no retiring credit contributes nothing to a cycle — scanning
// it is pure overhead. The loop therefore maintains, per upcoming cycle,
// a *superset* of the links that can act (spurious wakes are harmless;
// missed wakes are bugs), processes exactly those links in ascending
// link-id order through the same per-cycle phase sequence as the cycle
// loop, and advances `now` directly to the next cycle with any scheduled
// work. DESIGN.md §7h derives why the wake rules below cannot miss a
// congestion edge; the differential harness in engine_diff_test.go checks
// byte-identity against the cycle loop.
//
// newSim selects this loop only for latency-bound runs (see
// eventLoopFits): fault-free, with no engine-rate cap, and with pipeline
// fill longer than the longest per-tree stream. Fault plans and rate caps
// therefore never reach it, and it carries no code for them.

// evInf is the "no constraint" sentinel for the incremental minima and
// horizon terms.
const evInf = int(^uint(0) >> 1)

// deBruijn64 multiplies an isolated low bit into a unique 6-bit index —
// the classic branch-free trailing-zero count, local so the hot loop
// calls nothing outside the package.
const deBruijn64 = 0x03f79d71b4ca8b09

var deBruijn64tab = [64]byte{
	0, 1, 56, 2, 57, 49, 28, 3, 61, 58, 42, 50, 38, 29, 17, 4,
	62, 47, 59, 36, 45, 43, 51, 22, 53, 39, 33, 30, 24, 18, 12, 5,
	63, 55, 48, 27, 60, 41, 37, 16, 46, 35, 44, 21, 52, 32, 23, 11,
	54, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9, 13, 8, 7, 6,
}

func ntz64(x uint64) int { return int(deBruijn64tab[(x&-x)*deBruijn64>>58]) }

// linkSet is a three-level bitmap over link ids: a membership word layer
// plus two summary layers, so draining costs O(members + occupied words)
// rather than O(universe), insertions deduplicate for free, and iteration
// is naturally in ascending link-id order — the property that keeps event
// processing byte-identical to the cycle loop's in-order link scan. All
// storage is fixed at construction; the hot loop never allocates.
type linkSet struct {
	l0, l1, l2 []uint64
	n          int // members
}

func newLinkSet(nlinks int) linkSet {
	w0 := (nlinks + 63) >> 6
	if w0 == 0 {
		w0 = 1
	}
	w1 := (w0 + 63) >> 6
	w2 := (w1 + 63) >> 6
	return linkSet{l0: make([]uint64, w0), l1: make([]uint64, w1), l2: make([]uint64, w2)}
}

func (b *linkSet) add(id int32) {
	w := int(id) >> 6
	bit := uint64(1) << (uint(id) & 63)
	if b.l0[w]&bit != 0 {
		return
	}
	b.l0[w] |= bit
	b.l1[w>>6] |= 1 << (uint(w) & 63)
	b.l2[w>>12] |= 1 << (uint(w>>6) & 63)
	b.n++
}

// drainTo empties the set into dst in ascending id order and returns the
// member count. dst must have room for every member (the callers size it
// to the link universe).
func (b *linkSet) drainTo(dst []int32) int {
	if b.n == 0 {
		return 0
	}
	k := 0
	for w2 := 0; w2 < len(b.l2); w2++ {
		x2 := b.l2[w2]
		if x2 == 0 {
			continue
		}
		b.l2[w2] = 0
		for x2 != 0 {
			i1 := w2<<6 + ntz64(x2)
			x2 &= x2 - 1
			x1 := b.l1[i1]
			b.l1[i1] = 0
			for x1 != 0 {
				i0 := i1<<6 + ntz64(x1)
				x1 &= x1 - 1
				x0 := b.l0[i0]
				b.l0[i0] = 0
				for x0 != 0 {
					dst[k] = int32(i0<<6 + ntz64(x0))
					k++
					x0 &= x0 - 1
				}
			}
		}
	}
	b.n = 0
	return k
}

// evState is the event loop's wake bookkeeping. Everything here is a
// conservative schedule — membership means "may act", never "will act" —
// so correctness only requires that every state change enqueues the wakes
// its consequences need.
type evState struct {
	// wheel[due % len(wheel)] holds the links with pipeline arrivals due
	// at cycle `due`; len(wheel) == LinkLatency+1, and a slot is fully
	// drained at its due cycle before any reuse (a flit sent at t lands
	// at t+LinkLatency, which collides mod LinkLatency+1 only with cycles
	// already drained). wheelDue[slot] is the due cycle of the slot's
	// current occupants.
	wheel    []linkSet
	wheelDue []int

	// arb[0]/arb[1] alternate between "this cycle's arbitration set" and
	// "the set being assembled for the next cycle"; eventLoop swaps them
	// each processed cycle.
	arb [2]linkSet

	// occ collects links whose buffer occupancy changed this cycle, for
	// the peak/trace occupancy pass.
	occ linkSet

	// scratch receives bitmap drains (delivery, arbitration, occupancy —
	// strictly sequential, so one buffer serves all three).
	scratch []int32

	// conNow/conNext are the flows whose consumed counter may advance
	// this cycle / next cycle (deduplicated via flow.consumeMark, so
	// length is bounded by the live-flow census the capacity matches).
	conNow, conNext []*flow
	nNow, nNext     int

	// rootNext forces the next cycle to be processed because some root
	// engine still holds computable flits (budget or rate limited).
	rootNext bool

	// bufTotal is the incrementally maintained Σ link.curBuf, replacing
	// the cycle loop's per-cycle summation for the global peak.
	bufTotal int
}

func (s *sim) initEvent() {
	nl := len(s.links)
	w := s.cfg.LinkLatency + 1
	ev := &evState{
		wheel:    make([]linkSet, w),
		wheelDue: make([]int, w),
		scratch:  make([]int32, nl),
	}
	for i := range ev.wheel {
		ev.wheel[i] = newLinkSet(nl)
	}
	ev.arb[0] = newLinkSet(nl)
	ev.arb[1] = newLinkSet(nl)
	ev.occ = newLinkSet(nl)
	nf := 0
	for _, l := range s.links {
		nf += len(l.flows)
	}
	ev.conNow = make([]*flow, nf)
	ev.conNext = make([]*flow, nf)
	s.ev = ev
	// Seed cycle 1: every flow with data at rest (leaf reduce streams;
	// broadcast roots under OpBroadcast) wakes its link, and the root
	// engines are scanned on the first processed cycle.
	for _, l := range s.links {
		for _, f := range l.flows {
			if f.sent < f.m && s.senderReadyFast(f) > f.sent {
				ev.arb[1].add(l.id)
				break
			}
		}
	}
	ev.rootNext = s.spec.Op != OpBroadcast
}

// senderReadyFast is senderReady computed from the incremental minima —
// O(1) instead of an O(degree) child scan. The two must agree exactly;
// the differential harness compares the loops end to end, and the census
// maintenance sites (deliverLinkEv, arbitrateLinkEv) are the only
// writers.
func (s *sim) senderReadyFast(f *flow) int {
	nt := f.snd
	if f.phase == phaseReduce {
		if len(nt.redIn) == 0 || nt.redMin >= f.m {
			return f.m
		}
		return nt.redMin
	}
	if nt.bcastIn == nil {
		return nt.rootComputed
	}
	return nt.bcastIn.arrived
}

// addConsumeNow queues a retirement check for flow f at the current
// cycle; addConsumeNext for the following cycle. consumeMark stores the
// queued-for cycle, so each flow appears at most once per target cycle
// and list length stays bounded by the live-flow census.
func (s *sim) addConsumeNow(f *flow, now int) {
	ev := s.ev
	if f.consumeMark == now {
		return
	}
	f.consumeMark = now
	if ev.nNow == len(ev.conNow) {
		panic("netsim: internal: consume-now list overflow")
	}
	ev.conNow[ev.nNow] = f
	ev.nNow++
}

func (s *sim) addConsumeNext(f *flow, now int) {
	ev := s.ev
	if f.consumeMark == now+1 {
		return
	}
	f.consumeMark = now + 1
	if ev.nNext == len(ev.conNext) {
		panic("netsim: internal: consume-next list overflow")
	}
	ev.conNext[ev.nNext] = f
	ev.nNext++
}

// wheelAdd schedules link l for the delivery pass of cycle `due`.
func (ev *evState) wheelAdd(due int, id int32) {
	slot := due % len(ev.wheel)
	ev.wheel[slot].add(id)
	ev.wheelDue[slot] = due
}

// nextEventCycle returns the next cycle that must be processed after
// `now`: the earliest of pending next-cycle work (arbitration wakes,
// credit retirements, root engine budget), the earliest scheduled
// pipeline arrival, the next telemetry boundary, and the progress-timeout
// deadline — the cycle at which the reference loop would abort, so the
// diagnostic fires at the identical cycle.
func (s *sim) nextEventCycle(now, lastProgress int, nxt *linkSet) int {
	ev := s.ev
	if ev.rootNext || nxt.n > 0 || ev.nNext > 0 {
		return now + 1
	}
	next := lastProgress + s.cfg.ProgressTimeout + 1
	for i := range ev.wheel {
		if ev.wheel[i].n > 0 && ev.wheelDue[i] < next {
			next = ev.wheelDue[i]
		}
	}
	if s.sampling && s.nextSample < next {
		next = s.nextSample
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// eventLoop is the event-driven counterpart of cycleLoop: identical phase
// order per processed cycle, restricted to woken links, with idle spans
// skipped outright. Returns the same cycle count, errors, traces and
// telemetry as the reference loop on every input.
//
//lint:hotpath event-driven advance loop; allocation here scales with active links × processed cycles
func (s *sim) eventLoop() (int, error) {
	ev := s.ev
	if ev == nil {
		panic("netsim: internal: eventLoop without initEvent")
	}
	linkBW := s.cfg.LinkBandwidth
	if linkBW == 0 {
		linkBW = 1
	}
	now := 0
	lastProgress := 0
	cur, nxt := &ev.arb[0], &ev.arb[1]
	for s.pending > 0 {
		now = s.nextEventCycle(now, lastProgress, nxt)
		progressed := false
		cur, nxt = nxt, cur
		ev.conNow, ev.conNext = ev.conNext, ev.conNow
		ev.nNow, ev.nNext = ev.nNext, 0
		ev.rootNext = false

		// 1. Deliver flits due this cycle, from the wheel slot.
		slot := now % len(ev.wheel)
		if ws := &ev.wheel[slot]; ws.n > 0 && ev.wheelDue[slot] == now {
			cnt := ws.drainTo(ev.scratch)
			for i := 0; i < cnt; i++ {
				if s.deliverLinkEv(s.links[ev.scratch[i]], now, cur) {
					progressed = true
				}
			}
		}

		// 2. Root reduction engines (every live job — O(jobs), with the
		//    readiness test O(1) via the incremental minima).
		before := s.pending
		s.rootComputeEv(now, cur)
		if s.pending != before {
			progressed = true
		}

		// 3. Credit release for the flows whose retirement frontier may
		//    have moved (queued by the sends/computes/arrivals that move
		//    it). Freed credit wakes the link for this cycle's
		//    arbitration, exactly as the cycle loop's phase order allows.
		for i := 0; i < ev.nNow; i++ {
			s.consumeFlowEv(ev.conNow[i], cur)
		}
		ev.nNow = 0

		// 4. Link arbitration over the woken set, ascending link id.
		cnt := cur.drainTo(ev.scratch)
		for i := 0; i < cnt; i++ {
			if s.arbitrateLinkEv(s.links[ev.scratch[i]], now, linkBW, nxt) {
				progressed = true
			}
		}

		// 5. Occupancy pass over the links whose buffers changed.
		cnt = ev.occ.drainTo(ev.scratch)
		for i := 0; i < cnt; i++ {
			l := s.links[ev.scratch[i]]
			lb := l.curBuf
			if lb > l.peakBuf {
				l.peakBuf = lb
			}
			if lb != l.lastBuf {
				l.lastBuf = lb
				s.emit(TraceEvent{Cycle: now, Kind: TraceBufferOccupancy,
					Tree: -1, Phase: -1, From: l.from, To: l.to, Flit: -1, Value: int64(lb), Job: -1})
			}
		}
		if ev.bufTotal > s.result.PeakBufferFlits {
			s.result.PeakBufferFlits = ev.bufTotal
		}

		// 6. Telemetry sample boundary (the horizon includes nextSample,
		//    so boundary cycles are always processed).
		if s.sampling && now >= s.nextSample {
			s.sampleNow(now, false)
			s.nextSample = now + s.cfg.SampleEvery
		}

		// 7. Progress accounting: skipped cycles change nothing, so they
		//    are idle by construction and the deadlock diagnostic fires at
		//    the same cycle as the reference loop.
		if progressed {
			lastProgress = now
		} else if idle := now - lastProgress; idle > s.cfg.ProgressTimeout {
			return 0, s.progressError(now, idle)
		}
	}
	return now, nil
}

// deliverLinkEv is the cycle loop's delivery block for one link, plus the
// wake consequences of each accepted arrival: a reduce arrival feeds the
// receiver's parent stream (and the root engine, scanned every processed
// cycle); a broadcast arrival feeds the receiver's child streams and may
// retire its own buffer entry.
func (s *sim) deliverLinkEv(l *link, now int, cur *linkSet) bool {
	ev := s.ev
	progressed := false
	for l.pipeHead < len(l.pipeline) && l.pipeline[l.pipeHead].arrive <= now {
		fl := l.pipeline[l.pipeHead]
		l.pipeHead++
		f := fl.f
		f.push(fl.val)
		l.curBuf++
		ev.bufTotal++
		ev.occ.add(l.id)
		s.result.DeliveredFlits++
		k := f.arrived
		f.arrived++
		nt := f.rcv
		if f.phase == phaseReduce && k == nt.redMin {
			// Census maintenance: f sat at the minimum and moved up one.
			nt.redMinCnt--
			if nt.redMinCnt == 0 {
				nt.redMin++
				c := 0
				for _, cf := range nt.redIn {
					if cf.arrived == nt.redMin {
						c++
					}
				}
				nt.redMinCnt = c
			}
		}
		if s.traced {
			s.emit(TraceEvent{Cycle: now, Kind: TraceArrive, Tree: f.tree, Phase: f.phase,
				From: f.from, To: f.to, Flit: k, Value: fl.val, Job: f.j.idx})
		}
		if f.phase == phaseBcast {
			s.outputs[f.to][f.j.goff+k] = fl.val
			nt.delivered++
			if s.sampling {
				s.delivered++
			}
			s.pending--
			f.j.remaining--
			s.checkJobDone(f.j, now)
			for _, of := range nt.bcastOut {
				cur.add(of.ln.id)
			}
			s.addConsumeNow(f, now)
		} else if nt.redOut != nil {
			cur.add(nt.redOut.ln.id)
		}
		progressed = true
	}
	if l.pipeHead == len(l.pipeline) && l.pipeHead > 0 {
		l.pipeline = l.pipeline[:0]
		l.pipeHead = 0
	}
	return progressed
}

// rootComputeEv is rootCompute with the O(degree) readiness scan replaced
// by the incremental minimum, plus the wake consequences of each computed
// flit: new broadcast data for the root's child streams, and retirement
// of the root's child reduce buffers this same cycle. rootNext keeps the
// next cycle scheduled while any engine still holds computable flits.
func (s *sim) rootComputeEv(now int, cur *linkSet) {
	if s.spec.Op == OpBroadcast {
		return
	}
	ev := s.ev
	perJob := s.cfg.LinkBandwidth
	if perJob == 0 {
		perJob = 1
	}
	for _, j := range s.jobs {
		if j.dead || j.done {
			continue
		}
		root := s.spec.Forest[j.tree].Root
		nt := &j.nodes[root]
		mt := j.m
		for slot := 0; slot < perJob; slot++ {
			if nt.rootComputed >= mt {
				break
			}
			k := nt.rootComputed
			if len(nt.redIn) > 0 && nt.redMin <= k {
				break
			}
			v := nt.seg[k]
			for _, cf := range nt.redIn {
				v += cf.at(k)
			}
			nt.rootResult[k] = v
			nt.rootComputed++
			if nt.rootComputed == mt {
				s.result.TreeReduceDone[j.tree] = now
			}
			nt.delivered++
			if s.sampling {
				s.delivered++
			}
			s.pending--
			j.remaining--
			if s.traced {
				s.emit(TraceEvent{Cycle: now, Kind: TraceRootCompute, Tree: j.tree,
					From: root, To: root, Flit: k, Value: v, Job: j.idx})
			}
			s.checkJobDone(j, now)
			for _, of := range nt.bcastOut {
				cur.add(of.ln.id)
			}
			for _, cf := range nt.redIn {
				s.addConsumeNow(cf, now)
			}
		}
		if !j.done && nt.rootComputed < mt &&
			(len(nt.redIn) == 0 || nt.redMin > nt.rootComputed) {
			ev.rootNext = true
		}
	}
}

// consumeFlowEv is updateConsumed's per-flow body. Freed credit wakes the
// flow's link for this cycle's arbitration — the cycle loop releases
// credit in phase 3 and arbitrates in phase 4, so a same-cycle send on
// the freed window is reference behaviour, not an anticipation.
func (s *sim) consumeFlowEv(f *flow, cur *linkSet) {
	if f.consumed >= f.m {
		return
	}
	nt := f.rcv
	var c int
	if f.phase == phaseReduce {
		if nt.redOut != nil {
			c = nt.redOut.sent
		} else {
			c = nt.rootComputed
		}
	} else {
		c = f.arrived
		if nt.bcastMin < c {
			c = nt.bcastMin
		}
	}
	if c > f.consumed {
		l := f.ln
		l.curBuf -= c - f.consumed
		s.ev.bufTotal -= c - f.consumed
		s.ev.occ.add(l.id)
		f.consumed = c
		f.dropTo(c)
		if f.sent < f.m {
			cur.add(l.id)
		}
	}
}

// arbitrateLinkEv is the cycle loop's arbitration scan for one link (same
// round-robin restart discipline, same credit-stall gate), plus the wake
// consequences of each send: the scheduled arrival enters the wheel, and
// the sender's own receive buffers may retire next cycle. The closing
// data-present scan re-arms the link for the next cycle whenever any
// stream still has data to move — this single rule is what keeps
// credit-stalled streams scanned (and their stall telemetry counted)
// every cycle, exactly like the reference loop.
func (s *sim) arbitrateLinkEv(l *link, now, linkBW int, nxt *linkSet) bool {
	ev := s.ev
	nf := len(l.flows)
	sentThisCycle := 0
	for i := 0; i < nf && sentThisCycle < linkBW; i++ {
		f := l.flows[(l.rr+i)%nf]
		if f.sent >= f.m {
			continue // stream finished
		}
		if s.senderReadyFast(f) <= f.sent {
			continue // nothing to send yet
		}
		if f.sent-f.consumed >= s.cfg.VCDepth {
			s.noteStall(l, f, now)
			continue // no credit
		}
		val := s.flitValue(f, f.sent)
		k := f.sent
		f.sent++
		if f.phase == phaseBcast {
			snd := f.snd
			if k == snd.bcastMin {
				// Census maintenance: f sat at the minimum and moved up.
				snd.bcastMinCnt--
				if snd.bcastMinCnt == 0 {
					snd.bcastMin++
					c := 0
					for _, of := range snd.bcastOut {
						if of.sent == snd.bcastMin {
							c++
						}
					}
					snd.bcastMinCnt = c
				}
			}
		}
		s.result.FlitsSent++
		if s.sampling && f.phase == phaseReduce {
			s.reduceFlits++
		}
		if s.traced {
			s.emit(TraceEvent{Cycle: now, Kind: TraceSend, Tree: f.tree, Phase: f.phase,
				From: f.from, To: f.to, Flit: k, Value: val, Job: f.j.idx})
		}
		l.pipePush(inflight{f: f, val: val, arrive: now + s.cfg.LinkLatency})
		ev.wheelAdd(now+s.cfg.LinkLatency, l.id)
		if f.phase == phaseReduce {
			for _, cf := range f.snd.redIn {
				s.addConsumeNext(cf, now)
			}
		} else if f.snd.bcastIn != nil {
			s.addConsumeNext(f.snd.bcastIn, now)
		}
		l.rr = (l.rr + i + 1) % nf
		sentThisCycle++
		// Restart the round-robin scan so fairness is preserved across
		// the remaining budget.
		i = -1
		nf = len(l.flows)
	}
	l.flits += sentThisCycle
	if sentThisCycle > 0 {
		l.busyCycles++
	}
	for _, f := range l.flows {
		if f.sent < f.m && s.senderReadyFast(f) > f.sent {
			nxt.add(l.id)
			break
		}
	}
	return sentThisCycle > 0
}
