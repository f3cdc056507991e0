package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// small shrinks a workload to a few fast design points; everything else
// about it (fabric, consumer, plan generation) stays as benchmarked.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "scorecard":
		s.qs, s.ms = []int{3}, []int{512}
	case "busy-q31":
		s.qs, s.ms = []int{5}, []int{512}
	case "latency-sweep":
		s.qs, s.ms = []int{5}, []int{64, 256}
	case "chaos-q11":
		s.qs, s.ms, s.plans = []int{3}, []int{256}, 3
	default:
		t.Fatalf("no reduced form of workload %q", name)
	}
	return s
}

func runSmall(t *testing.T, s spec, seed int64, traced bool) *result {
	t.Helper()
	r, err := run(s, seed, 0, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.name, seed, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", s.name, seed, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// TestDigestRepeats runs every workload twice with one seed, untraced
// and traced: the simulated statistics must repeat exactly, and the
// traced run's extra bare simulations must not change them.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		s := small(t, w.name)
		a := runSmall(t, s, 7, false)
		b := runSmall(t, s, 7, false)
		c := runSmall(t, s, 7, true)
		if a.digest != b.digest || a.digest != c.digest {
			t.Errorf("%s: digests %016x, %016x, traced %016x differ", s.name, a.digest, b.digest, c.digest)
		}
	}
}

// TestDigestIgnoresSeed checks value-obliviousness: the seed only
// changes input values, and simulated timing must not depend on them.
func TestDigestIgnoresSeed(t *testing.T) {
	for _, w := range workloads {
		s := small(t, w.name)
		if a, b := runSmall(t, s, 1, false), runSmall(t, s, 2, false); a.digest != b.digest {
			t.Errorf("%s: seed 1 digest %016x, seed 2 digest %016x", s.name, a.digest, b.digest)
		}
	}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEmitsDeclaredMetrics checks the benchmark against BENCHMARK.json:
// the same workloads, and in each mode exactly the declared metrics with
// their declared units.
func TestEmitsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %q at %d", names, w.name, i)
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark %d", len(names), len(workloads))
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		u := make(map[string]string)
		for _, m := range ms {
			u[m.Name] = m.Unit
		}
		return u
	}
	for _, w := range workloads {
		s := small(t, w.name)
		for _, traced := range []bool{false, true} {
			want := units(d.EndToEnd)
			if traced {
				want = units(d.PerLayer)
			}
			got := runSmall(t, s, 3, traced).Metrics
			for name, unit := range want {
				if m, ok := got[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %q not emitted", s.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: %q unit %q, declared %q", s.name, traced, name, m.Unit, unit)
				}
			}
			var extra []string
			for name := range got {
				if _, ok := want[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s traced=%v: undeclared metrics %v", s.name, traced, extra)
			}
		}
	}
}
