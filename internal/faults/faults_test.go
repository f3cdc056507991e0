package faults

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func validPlan() *Plan {
	return &Plan{Faults: []Fault{
		{Kind: LinkDown, U: 3, V: 1, At: 100},
		{Kind: LinkTransient, U: 0, V: 5, At: 50, Until: 80},
		{Kind: LinkDegraded, U: 2, V: 4, At: 10, Until: 0, Bandwidth: 0.25},
		{Kind: EngineStall, Node: 7, At: 5, Until: 25},
		{Kind: RouterDown, Node: 6, At: 200},
		{Kind: LinkStorm, U: 8, V: 2, At: 30, Until: 40, Period: 50, Repeat: 3},
	}}
}

func TestValidateCanonicalisesEndpoints(t *testing.T) {
	p := validPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Faults[0].U != 1 || p.Faults[0].V != 3 {
		t.Fatalf("endpoints not canonicalised: got %d-%d", p.Faults[0].U, p.Faults[0].V)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"zero cycle", Fault{Kind: LinkDown, U: 0, V: 1, At: 0}, "activation cycle"},
		{"self loop", Fault{Kind: LinkDown, U: 2, V: 2, At: 1}, "self-loop"},
		{"negative endpoint", Fault{Kind: LinkDown, U: -1, V: 2, At: 1}, "negative link endpoint"},
		{"link-down with until", Fault{Kind: LinkDown, U: 0, V: 1, At: 1, Until: 9}, "permanent"},
		{"empty window", Fault{Kind: LinkTransient, U: 0, V: 1, At: 9, Until: 9}, "empty"},
		{"zero bandwidth", Fault{Kind: LinkDegraded, U: 0, V: 1, At: 1, Bandwidth: 0}, "bandwidth"},
		{"negative bandwidth", Fault{Kind: LinkDegraded, U: 0, V: 1, At: 1, Bandwidth: -2}, "bandwidth"},
		{"full-rate bandwidth", Fault{Kind: LinkDegraded, U: 0, V: 1, At: 1, Bandwidth: 1}, "bandwidth"},
		{"above-rate bandwidth", Fault{Kind: LinkDegraded, U: 0, V: 1, At: 1, Bandwidth: 2}, "bandwidth"},
		{"bandwidth on down", Fault{Kind: LinkDown, U: 0, V: 1, At: 1, Bandwidth: 1}, "only applies"},
		{"negative node", Fault{Kind: EngineStall, Node: -3, At: 1}, "negative node"},
		{"unknown kind", Fault{Kind: Kind(99), At: 1}, "unknown kind"},
		{"router-down with until", Fault{Kind: RouterDown, Node: 2, At: 1, Until: 9}, "permanent"},
		{"router-down negative node", Fault{Kind: RouterDown, Node: -1, At: 1}, "negative node"},
		{"storm empty window", Fault{Kind: LinkStorm, U: 0, V: 1, At: 9, Until: 9, Period: 5, Repeat: 2}, "empty"},
		{"storm no until", Fault{Kind: LinkStorm, U: 0, V: 1, At: 9, Period: 5, Repeat: 2}, "empty"},
		{"storm zero repeat", Fault{Kind: LinkStorm, U: 0, V: 1, At: 1, Until: 3, Period: 5}, "repeat"},
		{"storm period too short", Fault{Kind: LinkStorm, U: 0, V: 1, At: 1, Until: 9, Period: 8, Repeat: 2}, "period"},
		{"period on transient", Fault{Kind: LinkTransient, U: 0, V: 1, At: 1, Until: 3, Period: 5}, "only apply"},
		{"repeat on down", Fault{Kind: LinkDown, U: 0, V: 1, At: 1, Repeat: 2}, "only apply"},
	}
	for _, tc := range cases {
		p := &Plan{Faults: []Fault{tc.f}}
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.f)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := validPlan()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"version": 1`) {
		t.Fatalf("missing schema version in %s", buf.String())
	}
	got, err := DecodePlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"wrong version": `{"version":2,"faults":[]}`,
		"bad kind":      `{"version":1,"faults":[{"kind":"meteor","at":1}]}`,
		"numeric kind":  `{"version":1,"faults":[{"kind":0,"at":1}]}`,
		"invalid fault": `{"version":1,"faults":[{"kind":"link-down","u":1,"v":1,"at":1}]}`,
	}
	for name, in := range cases {
		if _, err := DecodePlan(strings.NewReader(in)); err == nil {
			t.Errorf("%s: DecodePlan accepted %s", name, in)
		}
	}
}

func TestFailedLinks(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: LinkDegraded, U: 0, V: 9, At: 1, Bandwidth: 0.5},
		{Kind: LinkDown, U: 5, V: 2, At: 10},
		{Kind: LinkTransient, U: 1, V: 4, At: 3, Until: 8},
		{Kind: LinkDown, U: 2, V: 5, At: 99}, // duplicate link
		{Kind: EngineStall, Node: 3, At: 2},
	}}
	got := p.FailedLinks()
	want := [][2]int{{1, 4}, {2, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FailedLinks = %v, want %v", got, want)
	}
}

func TestFailedLinksIncludesStorms(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: LinkStorm, U: 7, V: 3, At: 10, Until: 20, Period: 30, Repeat: 2},
		{Kind: RouterDown, Node: 5, At: 100},
	}}
	got := p.FailedLinks()
	want := [][2]int{{3, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FailedLinks = %v, want %v", got, want)
	}
}

func TestFailedRouters(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: RouterDown, Node: 9, At: 10},
		{Kind: EngineStall, Node: 4, At: 2, Until: 5},
		{Kind: RouterDown, Node: 1, At: 50},
		{Kind: RouterDown, Node: 9, At: 90}, // duplicate node
		{Kind: LinkDown, U: 0, V: 2, At: 3},
	}}
	got := p.FailedRouters()
	want := []int{1, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FailedRouters = %v, want %v", got, want)
	}
	if len((&Plan{}).FailedRouters()) != 0 {
		t.Fatal("empty plan has failed routers")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	links := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}
	a, err := Generate(links, 3, 100, 500, 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Same seed, shuffled + flipped candidate order: identical plan.
	shuffled := [][2]int{{6, 5}, {2, 1}, {4, 3}, {1, 0}, {5, 4}, {3, 2}}
	b, err := Generate(shuffled, 3, 100, 500, 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
	c, err := Generate(links, 3, 100, 500, 8)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical plans: %+v", a)
	}
	for _, f := range a.Faults {
		if f.Kind != LinkDown {
			t.Errorf("generated kind %v, want link-down", f.Kind)
		}
		if f.At < 100 || f.At > 500 {
			t.Errorf("generated cycle %d outside [100,500]", f.At)
		}
	}
	if len(a.FailedLinks()) != 3 {
		t.Fatalf("sampling with replacement: %v", a.Faults)
	}
}

func TestGenerateErrors(t *testing.T) {
	links := [][2]int{{0, 1}}
	if _, err := Generate(links, 2, 1, 9, 1); err == nil {
		t.Error("accepted count > candidates")
	}
	if _, err := Generate(links, 0, 1, 9, 1); err == nil {
		t.Error("accepted count 0")
	}
	if _, err := Generate(links, 1, 5, 4, 1); err == nil {
		t.Error("accepted inverted window")
	}
	if _, err := Generate(links, 1, 0, 4, 1); err == nil {
		t.Error("accepted minAt 0")
	}
	if _, err := Generate([][2]int{{2, 2}}, 1, 1, 9, 1); err == nil {
		t.Error("accepted self-loop candidate")
	}
}

func TestGenerateCorrelatedDeterministic(t *testing.T) {
	links := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}}
	a, err := GenerateCorrelated(links, 2, 3, 100, 500, 7)
	if err != nil {
		t.Fatalf("GenerateCorrelated: %v", err)
	}
	// Same seed, shuffled + flipped candidate order: identical plan.
	shuffled := [][2]int{{8, 7}, {2, 1}, {4, 3}, {1, 0}, {5, 4}, {3, 2}, {7, 6}, {6, 5}}
	b, err := GenerateCorrelated(shuffled, 2, 3, 100, 500, 7)
	if err != nil {
		t.Fatalf("GenerateCorrelated: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
	if len(a.Faults) != 6 {
		t.Fatalf("got %d faults, want 6: %+v", len(a.Faults), a.Faults)
	}
	// Each group of 3 shares one activation cycle; links never repeat.
	for g := 0; g < 2; g++ {
		at := a.Faults[g*3].At
		if at < 100 || at > 500 {
			t.Errorf("group %d cycle %d outside [100,500]", g, at)
		}
		for i := 1; i < 3; i++ {
			if a.Faults[g*3+i].At != at {
				t.Errorf("group %d not atomic: cycles %d vs %d", g, a.Faults[g*3+i].At, at)
			}
		}
	}
	if len(a.FailedLinks()) != 6 {
		t.Fatalf("links drawn with replacement: %v", a.Faults)
	}
}

func TestGenerateCorrelatedErrors(t *testing.T) {
	links := [][2]int{{0, 1}, {1, 2}}
	if _, err := GenerateCorrelated(links, 1, 3, 1, 9, 1); err == nil {
		t.Error("accepted group size > candidates")
	}
	if _, err := GenerateCorrelated(links, 0, 1, 1, 9, 1); err == nil {
		t.Error("accepted 0 groups")
	}
	if _, err := GenerateCorrelated(links, 1, 0, 1, 9, 1); err == nil {
		t.Error("accepted group size 0")
	}
	if _, err := GenerateCorrelated(links, 1, 1, 5, 4, 1); err == nil {
		t.Error("accepted inverted window")
	}
	if _, err := GenerateCorrelated([][2]int{{2, 2}}, 1, 1, 1, 9, 1); err == nil {
		t.Error("accepted self-loop candidate")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		LinkDown: "link-down", LinkTransient: "link-transient",
		LinkDegraded: "link-degraded", EngineStall: "engine-stall",
		RouterDown: "router-down", LinkStorm: "link-storm",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() == "" {
		t.Error("out-of-range Kind has empty String()")
	}
}
