package econ

import (
	"math"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/core"
)

// DefaultCostModel returns public-estimate Starlink economics, the
// model econ prices the default scenario with: ≈$0.8M to build and
// ≈$0.7M to launch each satellite, 5-year life, 20% ground-segment
// overhead.
func DefaultCostModel() CostModel {
	return FromSystemCost(constellation.StarlinkSystem().Cost)
}

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// $1.5M space segment × 1.2 overhead = $1.8M per satellite incl. ground segment.
	if got := m.PerSatelliteUSD(); math.Abs(got-1.8e6) > 1 {
		t.Errorf("per-satellite = %v, want 1.8M", got)
	}
	if got := m.CapexUSD(1000); math.Abs(got-1.8e9) > 1 {
		t.Errorf("capex(1000) = %v, want 1.8B", got)
	}
	if got := m.AnnualizedUSD(1000); math.Abs(got-0.36e9) > 1 {
		t.Errorf("annualized(1000) = %v, want 0.36B", got)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultCostModel()
	bad.SatelliteLifetimeYears = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero lifetime should fail")
	}
	bad = DefaultCostModel()
	bad.GroundSegmentOverhead = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("overhead below 1 should fail")
	}
	bad = DefaultCostModel()
	bad.SatelliteUnitUSD = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost should fail")
	}
}

func TestMonthlyPerLocation(t *testing.T) {
	m := DefaultCostModel()
	// 8,400 satellites serving 4.67M locations: annualized $3.02B →
	// ~$54/location/month.
	got := m.MonthlyPerLocationUSD(8400, 4_667_000)
	want := m.AnnualizedUSD(8400) / 12 / 4_667_000
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("monthly per location = %v, want %v", got, want)
	}
	if got < 40 || got > 70 {
		t.Errorf("monthly per location = %v, want ≈$54", got)
	}
	if m.MonthlyPerLocationUSD(100, 0) != 0 {
		t.Error("zero locations should price at 0")
	}
}

func TestPriceSteps(t *testing.T) {
	m := DefaultCostModel()
	steps := []core.StepCost{
		{FromUnserved: 50000, ToUnserved: 10000, LocationsGained: 40000, AdditionalSatellites: 400},
		{FromUnserved: 10000, ToUnserved: 9000, LocationsGained: 1000, AdditionalSatellites: 400},
		{FromUnserved: 9000, ToUnserved: 9000, LocationsGained: 0, AdditionalSatellites: 0}, // dropped
	}
	priced, err := m.PriceSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(priced) != 2 {
		t.Fatalf("got %d priced steps", len(priced))
	}
	// Same satellites over 40x fewer locations: 40x the per-location
	// cost — the F3 story in dollars.
	ratio := priced[1].CapexPerLocationUSD / priced[0].CapexPerLocationUSD
	if math.Abs(ratio-40) > 1e-9 {
		t.Errorf("tail cost ratio = %v, want 40", ratio)
	}
	if priced[0].CapexUSD != m.CapexUSD(400) {
		t.Errorf("step capex = %v", priced[0].CapexUSD)
	}
	// Monthly per-location consistency.
	wantMonthly := priced[0].CapexUSD / 5 / 12 / 40000
	if math.Abs(priced[0].MonthlyPerLocationUSD-wantMonthly) > 1e-9 {
		t.Errorf("monthly = %v, want %v", priced[0].MonthlyPerLocationUSD, wantMonthly)
	}

	bad := DefaultCostModel()
	bad.SatelliteLifetimeYears = -1
	if _, err := bad.PriceSteps(steps); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestPriceScenario(t *testing.T) {
	m := DefaultCostModel()
	sc, err := m.PriceScenario(41261, 4_667_000)
	if err != nil {
		t.Fatal(err)
	}
	if sc.CapexUSD != m.CapexUSD(41261) {
		t.Errorf("capex = %v", sc.CapexUSD)
	}
	// The paper's >40k constellation serving only un(der)served
	// locations would need >$200/location/month — far above the $120
	// price, let alone the 2% affordability bar.
	if sc.MonthlyPerLocationUSD < 150 || sc.MonthlyPerLocationUSD > 350 {
		t.Errorf("monthly per location = %v, want a few hundred dollars", sc.MonthlyPerLocationUSD)
	}
	bad := DefaultCostModel()
	bad.GroundSegmentOverhead = 0
	if _, err := bad.PriceScenario(1, 1); err == nil {
		t.Error("invalid model should fail")
	}
}
