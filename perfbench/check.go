package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/critpath"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
)

// floorTolerance is the scorecard gate's tolerance on the Theorem
// 7.6 / 7.19 floors (perf.DefaultScorecardConfig).
const floorTolerance = 0.10

// outcome is one simulation of an op with the workload's consumer.
type outcome struct {
	res *core.AllreduceResult
	err error
	// rep is the obsv collector's report, an the critpath analysis.
	rep   *obsv.Report
	an    *critpath.Analysis
	anErr error
}

// termination classifies how a run ended. Only completion and the two
// recovery sentinels are acceptable ends.
func termination(err error) (string, bool) {
	switch {
	case err == nil:
		return "completed", true
	case errors.Is(err, netsim.ErrAllTreesLost):
		return "all-trees-lost", true
	case errors.Is(err, netsim.ErrRecoveryLimit):
		return "recovery-limit", true
	}
	return "error", false
}

// check returns every way the outcome is wrong; empty means correct.
func check(o *op, out *outcome) []string {
	end, ok := termination(out.err)
	if !ok {
		return []string{fmt.Sprintf("unclassified termination: %v", out.err)}
	}
	if o.plan == nil && out.err != nil {
		return []string{fmt.Sprintf("fault-free run ended with %v", out.err)}
	}
	if end != "completed" {
		return nil
	}
	var fails []string
	res := out.res
	for v, row := range res.Outputs {
		if len(row) != len(o.want) {
			fails = append(fails, fmt.Sprintf("node %d output has %d elements, want %d", v, len(row), len(o.want)))
			break
		}
		if k := mismatch(row, o.want); k >= 0 {
			fails = append(fails, fmt.Sprintf("node %d output[%d] = %d, want %d", v, k, row[k], o.want[k]))
			break
		}
	}
	if len(res.Outputs) != o.inst.N() {
		fails = append(fails, fmt.Sprintf("%d output rows for %d nodes", len(res.Outputs), o.inst.N()))
	}
	if res.FlitsSent != res.DeliveredFlits+res.DroppedFlits {
		fails = append(fails, fmt.Sprintf("flit conservation: sent %d != delivered %d + dropped %d",
			res.FlitsSent, res.DeliveredFlits, res.DroppedFlits))
	}
	if o.plan == nil {
		fails = append(fails, checkFloor(o, res)...)
	}
	if out.rep != nil && out.rep.TotalFlits != res.FlitsSent {
		fails = append(fails, fmt.Sprintf("obsv counted %d flits, simulator sent %d", out.rep.TotalFlits, res.FlitsSent))
	}
	if out.anErr != nil {
		fails = append(fails, fmt.Sprintf("critpath analysis: %v", out.anErr))
	} else if out.an != nil {
		total := 0
		for _, b := range out.an.Blame {
			total += b.Cycles
		}
		if total != res.Cycles {
			fails = append(fails, fmt.Sprintf("critpath blame sums to %d, want %d cycles", total, res.Cycles))
		}
	}
	return fails
}

func mismatch(got, want []int64) int {
	for k := range want {
		if got[k] != want[k] {
			return k
		}
	}
	return -1
}

// checkFloor gates a fault-free run against its embedding's proven
// aggregate-bandwidth floor, like the scorecard gate. A single flit
// needs 2·depth·LinkLatency cycles to climb the deepest tree and come
// back down, so the steady-state rate is m over the cycles beyond that
// fill. Points whose fill outlasts the serialization the floor predicts
// are latency-bound: the floor says nothing about them and is skipped.
func checkFloor(o *op, res *core.AllreduceResult) []string {
	bound := floor(o)
	fill := 2 * o.e.MaxDepth * o.cfg.LinkLatency
	if float64(o.m)/bound < float64(fill) {
		return nil
	}
	rate := float64(o.m) / float64(res.Cycles-fill)
	if res.Cycles <= fill || rate < bound*(1-floorTolerance) {
		return []string{fmt.Sprintf("steady rate %.3f (m=%d, %d cycles, fill %d) below the %v floor %.3f",
			rate, o.m, res.Cycles, fill, o.e.Kind, bound)}
	}
	return nil
}

// floor is the embedding's Theorem 7.6 / 7.19 aggregate-bandwidth floor
// at unit link bandwidth; one link for the single-tree baseline.
func floor(o *op) float64 {
	switch o.e.Kind {
	case core.LowDepth:
		return bandwidth.LowDepthBound(o.inst.Q, 1)
	case core.Hamiltonian:
		return bandwidth.HamiltonianBound(len(o.e.Forest), 1)
	default:
		return 1
	}
}

// modelErr is |measured − Algorithm 1| / Algorithm 1 aggregate bandwidth.
func modelErr(o *op, res *core.AllreduceResult) float64 {
	model := o.e.Model.Aggregate
	return math.Abs(float64(o.m)/float64(res.Cycles)-model) / model
}

// digest fingerprints the simulated statistics of one run: how it ended,
// Cycles, flit counters, LinkStats, TreeReduceDone, DeadTrees and
// Recoveries. A change that only speeds the simulator up must leave it
// unchanged. core.AllreduceResult does not carry netsim's TreeDone.
func digest(out *outcome) uint64 {
	end, _ := termination(out.err)
	h := fnv.New64a()
	b := []byte(end)
	if res := out.res; res != nil {
		b = appendInts(b, res.Cycles, res.FlitsSent, res.DeliveredFlits, res.DroppedFlits, res.PeakBufferFlits)
		for _, l := range res.LinkStats {
			b = appendInts(b, l.From, l.To, l.Flits, l.BusyCycles, l.StallCycles, l.Dropped, l.PeakBufferFlits, l.Trees)
			b = strconv.AppendUint(b, math.Float64bits(l.Utilization), 16)
			_, _ = h.Write(b) // hash writes never fail
			b = b[:0]
		}
		b = appendInts(b, res.TreeReduceDone...)
		b = appendInts(b, res.DeadTrees...)
		for _, r := range res.Recoveries {
			b = appendInts(b, r.Cycle, r.Reissued, r.Remaining, r.Generation)
			for _, l := range r.FailedLinks {
				b = appendInts(b, l[0], l[1])
			}
			b = appendInts(b, r.DeadTrees...)
		}
	}
	_, _ = h.Write(b)
	return h.Sum64()
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return append(b, ';')
}
