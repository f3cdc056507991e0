package chaos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func smokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Qs = []int{3}
	cfg.Embeddings = []string{"low-depth", "hamiltonian"}
	cfg.Runs = 12
	cfg.M = 512
	cfg.MinAt = 20
	cfg.MaxAt = 150
	cfg.MinTailElems = 64
	return cfg
}

func TestRunSeedPure(t *testing.T) {
	a := RunSeed(42, 5, 1, 7)
	if b := RunSeed(42, 5, 1, 7); a != b {
		t.Fatalf("RunSeed not pure: %d vs %d", a, b)
	}
	seen := map[int64]bool{a: true}
	for _, alt := range [][3]int{{5, 1, 8}, {5, 0, 7}, {3, 1, 7}} {
		s := RunSeed(42, alt[0], alt[1], alt[2])
		if seen[s] {
			t.Errorf("RunSeed collision for %v: %d", alt, s)
		}
		seen[s] = true
	}
}

func TestParseEmbedding(t *testing.T) {
	for _, name := range []string{"single-tree", "low-depth", "hamiltonian"} {
		k, err := ParseEmbedding(name)
		if err != nil {
			t.Fatalf("ParseEmbedding(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseEmbedding(%q) = %v", name, k)
		}
	}
	if _, err := ParseEmbedding("ring"); err == nil {
		t.Error("ParseEmbedding accepted unknown name")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Qs = nil },
		func(c *Config) { c.Embeddings = nil },
		func(c *Config) { c.Embeddings = []string{"mesh"} },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.MinAt = 0 },
		func(c *Config) { c.MaxAt = c.MinAt - 1 },
		func(c *Config) { c.Tolerance = 0 },
		func(c *Config) { c.Tolerance = 1 },
		func(c *Config) { c.MinTailElems = 0 },
	}
	for i, mutate := range bad {
		cfg := smokeConfig()
		mutate(&cfg)
		if _, err := Campaign(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestCampaignSmoke is the in-tree campaign gate: a small seeded
// campaign must classify every run and record zero violations, and the
// report must be byte-identical across repeats and parallelism levels.
func TestCampaignSmoke(t *testing.T) {
	cfg := smokeConfig()
	rep, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("campaign recorded %d violations:\n%s", len(fails), strings.Join(fails, "\n"))
	}
	recoveries := 0
	for _, pt := range rep.Points {
		if pt.Runs != cfg.Runs {
			t.Errorf("point q=%d %s: runs %d, want %d", pt.Q, pt.Embedding, pt.Runs, cfg.Runs)
		}
		if got := pt.Completed + pt.AllTreesLost + pt.RecoveryLimit; got != pt.Runs {
			t.Errorf("point q=%d %s: %d of %d runs classified", pt.Q, pt.Embedding, got, pt.Runs)
		}
		if pt.Completed == 0 {
			t.Errorf("point q=%d %s: no run completed", pt.Q, pt.Embedding)
		}
		recoveries += pt.Recoveries
	}
	if recoveries == 0 {
		t.Error("campaign exercised no recovery at all")
	}

	again, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("Campaign (repeat): %v", err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("repeat campaign differs from the first")
	}
	cfg.Parallel = 4
	par, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("Campaign (parallel): %v", err)
	}
	var serial, parallel bytes.Buffer
	rep.Label, par.Label = "x", "x"
	if err := rep.WriteJSON(&serial); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := par.WriteJSON(&parallel); err != nil {
		t.Fatalf("WriteJSON (parallel): %v", err)
	}
	if serial.String() != parallel.String() {
		t.Error("parallel campaign report not byte-identical to serial")
	}

	back, err := DecodeReport(strings.NewReader(serial.String()))
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report did not survive the JSON round trip")
	}

	var md strings.Builder
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	for _, want := range []string{"Chaos campaign", "all-trees-lost", "low-depth", "hamiltonian", "classified sentinel"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestDecodeReportRejects(t *testing.T) {
	cases := []string{
		`{`,
		`{"schema":"polarfly-bench/v1","points":[]}`,
		`{"schema":"polarfly-campaign/v1","points":[{"q":3,"runs":0}]}`,
		`{"schema":"polarfly-campaign/v1","points":[{"q":3,"runs":4,"completed":3,"all_trees_lost":2}]}`,
	}
	for i, in := range cases {
		if _, err := DecodeReport(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: invalid report accepted: %s", i, in)
		}
	}
}
