package core

import (
	"errors"
	"fmt"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
)

// TestFloor pins every (q, kind) floor to the bandwidth package's closed
// forms and the bound names the committed scorecard snapshots record,
// including even q and DepthTwo, which has no proven floor.
func TestFloor(t *testing.T) {
	for _, q := range []int{3, 4, 5, 7} {
		ham := (q + 1) / 2
		cases := []struct {
			kind  EmbeddingKind
			trees int
			bound float64
			name  string
		}{
			{SingleTree, 1, 1.0, "single link B"},
			{LowDepth, q, bandwidth.LowDepthBound(q, 1.0), "thm7.6 q·B/2"},
			{Hamiltonian, ham, bandwidth.HamiltonianBound(ham, 1.0), "thm7.19 (q+1)·B/2"},
			{DepthTwo, q, 0, "none"},
		}
		for _, c := range cases {
			bound, name := Floor(q, c.kind, c.trees)
			if bound != c.bound || name != c.name {
				t.Errorf("Floor(%d, %v, %d) = (%g, %q), want (%g, %q)",
					q, c.kind, c.trees, bound, name, c.bound, c.name)
			}
		}
	}
}

// TestCheckOutputs checks that the first difference is reported in
// node-major order, and that a missing row or a short row is caught
// rather than read past.
func TestCheckOutputs(t *testing.T) {
	in := instance(t, 3) // N = 13
	want := []int64{5, 7, 9}
	exact := func() [][]int64 {
		out := make([][]int64, in.N())
		for v := range out {
			out[v] = append([]int64(nil), want...)
		}
		return out
	}
	if err := in.CheckOutputs(exact(), want); err != nil {
		t.Fatalf("exact outputs rejected: %v", err)
	}
	wrong := exact()
	wrong[4][2] = 8
	wrong[9][0] = 1
	short := exact()
	short[6] = short[6][:2]
	cases := []struct {
		name    string
		outputs [][]int64
		want    string
	}{
		{"first differing element", wrong, "node 4 output[2] = 8, want 9"},
		{"missing row", exact()[:12], "12 output rows for 13 nodes"},
		{"short row", short, "node 6 holds 2 elements, want 3"},
	}
	for _, c := range cases {
		err := in.CheckOutputs(c.outputs, want)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}

// TestWorstCaseFaultOutcome checks the plan and the abort expectation:
// a forest with survivors passes the run's error through, a single tree
// must abort with ErrAllTreesLost and nothing else.
func TestWorstCaseFaultOutcome(t *testing.T) {
	in := instance(t, 3)
	e, err := in.Embed(LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WorstCaseFault(e, 100)
	if err != nil {
		t.Fatal(err)
	}
	link, _, _ := WorstCaseLink(e)
	if wc.Link != link || wc.Degraded == nil || len(wc.Plan.Faults) != 1 ||
		wc.Plan.Faults[0] != (faults.Fault{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100}) {
		t.Fatalf("low-depth worst case %+v, want one LinkDown on %v at 100 with survivors", wc, link)
	}
	boom := errors.New("boom")
	if lost, err := wc.Outcome(boom); lost || err != boom {
		t.Errorf("survivors: Outcome(boom) = (%v, %v), want (false, boom)", lost, err)
	}

	st, err := in.Embed(SingleTree)
	if err != nil {
		t.Fatal(err)
	}
	if wc, err = WorstCaseFault(st, 100); err != nil {
		t.Fatal(err)
	}
	if lost, err := wc.Outcome(fmt.Errorf("run: %w", netsim.ErrAllTreesLost)); !lost || err != nil {
		t.Errorf("single tree aborted: Outcome = (%v, %v), want (true, nil)", lost, err)
	}
	if lost, err := wc.Outcome(nil); lost || err == nil {
		t.Errorf("single tree completed: Outcome = (%v, %v), want an error", lost, err)
	}
}
