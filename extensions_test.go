package leodivide

import (
	"context"
	"math"
	"testing"

	"leodivide/internal/afford"
	"leodivide/internal/constellation"
	"leodivide/internal/econ"
)

func TestAssessFleets(t *testing.T) {
	m := NewModel()
	r, err := m.AssessFleets(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Gen1.TotalSatellites != 4408 || r.Gen2.TotalSatellites != 29988 {
		t.Errorf("fleet totals = %d / %d", r.Gen1.TotalSatellites, r.Gen2.TotalSatellites)
	}
	// Gen1 cannot cover any of the paper's beamspread requirements.
	for _, row := range r.Gen1.Rows {
		if row.CoverageRatio >= 1 {
			t.Errorf("Gen1 covers beamspread %g?!", row.Spread)
		}
	}
	// Gen2 covers the high-beamspread requirements but not the
	// low-beamspread (high-quality) ones — the paper's tradeoff
	// persists even at ~30k satellites.
	last := r.Gen2.Rows[len(r.Gen2.Rows)-1]
	first := r.Gen2.Rows[0]
	if last.CoverageRatio < 1 {
		t.Errorf("Gen2 should cover beamspread %g (ratio %v)", last.Spread, last.CoverageRatio)
	}
	if first.CoverageRatio >= 1 {
		t.Errorf("Gen2 should not cover beamspread %g (ratio %v)", first.Spread, first.CoverageRatio)
	}
}

func TestFig4Refined(t *testing.T) {
	m := NewModel()
	r, err := m.Fig4Refined(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.SigmaLog != afford.DefaultIncomeSigmaLog || r.HouseholdSize != 3 {
		t.Errorf("SigmaLog %v, HouseholdSize %d: want the default dispersion and a household of three", r.SigmaLog, r.HouseholdSize)
	}
	// Median-only reproduces the paper's 74.5%.
	if math.Abs(r.MedianOnly.UnaffordableFraction-0.745) > 0.01 {
		t.Errorf("median-only fraction = %v", r.MedianOnly.UnaffordableFraction)
	}
	// Dispersion moves the estimate but keeps it in the same regime.
	if r.Dispersed.UnaffordableFraction < 0.4 || r.Dispersed.UnaffordableFraction > 0.8 {
		t.Errorf("dispersed fraction = %v", r.Dispersed.UnaffordableFraction)
	}
	// Starlink's subsidized threshold sits far above the Lifeline
	// eligibility ceiling, so eligibility-awareness cannot improve on
	// full price.
	if r.LifelineAware.SubsidyUsableFraction != 0 {
		t.Errorf("rescued fraction = %v, want 0 at Starlink's price",
			r.LifelineAware.SubsidyUsableFraction)
	}
	if r.LifelineAware.EligibleFraction <= 0 {
		t.Error("no Lifeline-eligible households?")
	}
}

func TestBusyHour(t *testing.T) {
	m := NewModel()
	r, err := m.BusyHour(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakHourLocal < 18 || r.PeakHourLocal > 22 {
		t.Errorf("peak hour = %d", r.PeakHourLocal)
	}
	// The stagger ordering that makes P2 bind locally.
	if !(r.Stagger.NationalPeakToMean < r.Stagger.FootprintPeakToMean &&
		r.Stagger.FootprintPeakToMean <= r.Stagger.CellPeakToMean+1e-9) {
		t.Errorf("stagger ordering violated: %+v", r.Stagger)
	}
	// Busy-hour throughput collapses with cell density.
	if !(r.MedianCellMbps > r.P90CellMbps && r.P90CellMbps > r.PeakCellMbps) {
		t.Errorf("throughput ordering violated: %v / %v / %v",
			r.MedianCellMbps, r.P90CellMbps, r.PeakCellMbps)
	}
	// Even the median cell falls short of the 100 Mbps benchmark with
	// one 10-way spread beam.
	if r.MedianCellMbps > 100 {
		t.Errorf("median cell busy-hour rate = %v, expected below benchmark", r.MedianCellMbps)
	}
}

func TestEconomics(t *testing.T) {
	m := NewModel()
	r, err := m.Economics(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != len(paperTable2Spreads) {
		t.Fatalf("got %d scenarios", len(r.Scenarios))
	}
	// Cost falls with beamspread.
	for i := 1; i < len(r.Scenarios); i++ {
		if r.Scenarios[i].CapexUSD >= r.Scenarios[i-1].CapexUSD {
			t.Error("capex not decreasing with beamspread")
		}
	}
	// The >40k-satellite deployment cannot be sustained at $120/month.
	if r.Scenarios[1].MonthlyPerLocationUSD < 120 {
		t.Errorf("beamspread-2 sustaining cost = $%v/loc/month, expected above the $120 price",
			r.Scenarios[1].MonthlyPerLocationUSD)
	}
	// Tail steps get monotonically more expensive per location.
	for i := 1; i < len(r.Tail); i++ {
		if r.Tail[i].CapexPerLocationUSD <= r.Tail[i-1].CapexPerLocationUSD {
			t.Error("tail cost per location not increasing")
		}
	}
}

// TestEconomicsPricesActiveSystem: econ prices the constellation the
// scenario selects, with its cost overrides applied, not Starlink's
// declared unit costs.
func TestEconomicsPricesActiveSystem(t *testing.T) {
	ds := smallDataset(t, 1)
	costOf := func(sc ScenarioConfig) econ.CostModel {
		t.Helper()
		sc.RunConfig = DefaultRunConfig()
		r, err := sc.BuildModel().Economics(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return r.Model
	}
	starlink := econ.FromSystemCost(constellation.StarlinkSystem().Cost)
	if got := costOf(ScenarioConfig{}); got != starlink {
		t.Errorf("default scenario priced at %+v, want Starlink's %+v", got, starlink)
	}
	overridden := costOf(ScenarioConfig{CostSatelliteUSD: 3e6, CostLifeYears: 10})
	if overridden.PerSatelliteUSD() != 3e6*starlink.GroundSegmentOverhead || overridden.SatelliteLifetimeYears != 10 {
		t.Errorf("cost overrides priced at %+v, want $3M all-in and a 10-year life", overridden)
	}
	kuiper, ok := constellation.CostByName("kuiper")
	if !ok {
		t.Fatal("no kuiper cost spec")
	}
	if got, want := costOf(ScenarioConfig{Constellation: "kuiper"}), econ.FromSystemCost(kuiper); got != want || got == starlink {
		t.Errorf("kuiper priced at %+v, want its own spec %+v", got, want)
	}
}

func TestFig1Gini(t *testing.T) {
	m := NewModel()
	r, err := m.Fig1(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	// A long-tail demand distribution is strongly concentrated.
	if r.Gini < 0.5 || r.Gini >= 1 {
		t.Errorf("Gini = %v, want strong concentration", r.Gini)
	}
	if len(r.Lorenz) != 101 {
		t.Errorf("Lorenz has %d points", len(r.Lorenz))
	}
	last := r.Lorenz[len(r.Lorenz)-1]
	if math.Abs(last.Y-1) > 1e-9 {
		t.Errorf("Lorenz endpoint = %v", last.Y)
	}
}

// TestStability holds the findings across independently seeded
// datasets. The calibration anchors (totals, peaks, quantiles) are the
// same for every seed; what moves is the unpinned geography, so the
// spread across seeds isolates the model's sensitivity to it.
func TestStability(t *testing.T) {
	ctx := context.Background()
	exp, ok := NewModel().ExperimentByName("findings")
	if !ok {
		t.Fatal("no findings experiment")
	}
	var served, unaffordable, sats []float64
	for seed := int64(1); seed <= 3; seed++ {
		ds, err := GenerateDataset(ctx, WithSeed(seed), WithScale(0.05))
		if err != nil {
			t.Fatal(err)
		}
		v, err := exp.Run(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		f := v.(Findings)
		served = append(served, f.F1.ServedFractionAtCap)
		unaffordable = append(unaffordable, f.F4UnaffordableFraction)
		sats = append(sats, float64(f.F2SatellitesAtSpread2))
	}
	// The served fraction at the cap is anchored exactly.
	for i, v := range served {
		if v != served[0] {
			t.Errorf("seed %d: served fraction at cap %v, seed 1 %v", i+1, v, served[0])
		}
	}
	// Affordability is quantile-pinned: dispersion well under 1%.
	if rs := relSpread(unaffordable); rs > 0.01 {
		t.Errorf("unaffordable fraction %v: relative spread %v, want <1%%", unaffordable, rs)
	}
	// Constellation size varies only through binding-cell geography. At
	// this small scale the scaled-down peaks fall below the 4-beam
	// threshold, so the binding cell can be any 1-beam cell and its
	// latitude wanders more than at full scale — allow 15% here.
	if rs := relSpread(sats); rs > 0.15 {
		t.Errorf("satellites at beamspread 2 %v: relative spread %v, want <15%%", sats, rs)
	}
}

// relSpread returns the sample standard deviation of xs over its mean.
func relSpread(xs []float64) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}
