package leodivide

import (
	"context"
	"math"
	"sync"
	"testing"

	"leodivide/internal/afford"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/orbit"
	"leodivide/internal/sim"
)

// The full-scale dataset takes ~0.5s to generate; share one across the
// integration tests.
var (
	dsOnce sync.Once
	dsFull *Dataset
	dsErr  error
)

func fullDataset(t testing.TB) *Dataset {
	dsOnce.Do(func() {
		dsFull, dsErr = GenerateDataset(context.Background(), WithSeed(1))
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsFull
}

// smallDataset generates a cheap (scale 0.02) dataset.
func smallDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(context.Background(), WithSeed(seed), WithScale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateDatasetCalibration(t *testing.T) {
	ds := fullDataset(t)
	if got := ds.TotalLocations(); got != 4672000 {
		t.Errorf("total = %d, want 4672000", got)
	}
	if ds.NumCells() < 20000 || ds.NumCells() > 35000 {
		t.Errorf("cells = %d, want a plausible US demand-cell count", ds.NumCells())
	}
	if len(ds.Incomes.Counties()) < 1000 {
		t.Errorf("income table has only %d counties", len(ds.Incomes.Counties()))
	}
}

func TestGenerateDatasetOptions(t *testing.T) {
	// Every region rejects a scale outside (0, 1], including the
	// non-finite values that slip past a plain range comparison.
	for _, key := range []string{"us", "brazil-rural", "taipei-dense"} {
		for _, bad := range []float64{0, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := GenerateDataset(context.Background(), WithRegion(key), WithScale(bad)); err == nil {
				t.Errorf("region %s: scale %v should fail", key, bad)
			}
		}
	}
	small, err := GenerateDataset(context.Background(), WithSeed(3), WithScale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	want := int(4672000 * 0.05)
	if got := small.TotalLocations(); got != want {
		t.Errorf("scaled total = %d, want %d", got, want)
	}
}

func TestFig1(t *testing.T) {
	m := NewModel()
	r, err := m.Fig1(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxCell != 5998 {
		t.Errorf("max cell = %d, want 5998", r.MaxCell)
	}
	if r.P90 < 548 || r.P90 > 556 {
		t.Errorf("p90 = %d, want ≈552", r.P90)
	}
	if r.P99 < 1420 || r.P99 > 1455 {
		t.Errorf("p99 = %d, want ≈1437", r.P99)
	}
	if len(r.CDF) == 0 {
		t.Error("empty CDF series")
	}
	for i := 1; i < len(r.CDF); i++ {
		if r.CDF[i].Y < r.CDF[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestTable1(t *testing.T) {
	m := NewModel()
	c, err := m.Table1(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.PeakCellLocations != 5998 {
		t.Errorf("peak = %d", c.PeakCellLocations)
	}
	if math.Abs(c.PeakCellDemandGbps-599.8) > 1e-9 {
		t.Errorf("demand = %v", c.PeakCellDemandGbps)
	}
	if math.Abs(c.MaxOversubscription-34.67) > 0.02 {
		t.Errorf("oversub = %v, want ≈34.67 (paper ~35:1)", c.MaxOversubscription)
	}
}

func TestFinding1(t *testing.T) {
	m := NewModel()
	f, err := m.Finding1(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.LocationsInCellsAboveCap != 22428 {
		t.Errorf("locations above cap = %d, want 22428", f.LocationsInCellsAboveCap)
	}
	if f.ExcessLocations != 5128 {
		t.Errorf("excess = %d, want 5128", f.ExcessLocations)
	}
	// 99.89% served at 20:1.
	if math.Abs(f.ServedFractionAtCap-0.9989) > 0.0002 {
		t.Errorf("served fraction = %v, want ≈0.9989", f.ServedFractionAtCap)
	}
}

func TestTable2AgainstPaper(t *testing.T) {
	// The calibrated model reproduces the paper's Table 2 within 0.5%
	// in both scenario columns.
	m := NewModel().Calibrated()
	r, err := m.Table2(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		full := r.PaperFullService.At(row.Spread)
		capped := r.PaperCapped.At(row.Spread)
		if rel(row.FullServiceSats, full) > 0.005 {
			t.Errorf("spread %g: full-service %d vs paper %d", row.Spread, row.FullServiceSats, full)
		}
		if rel(row.CappedOversubSats, capped) > 0.005 {
			t.Errorf("spread %g: capped %d vs paper %d", row.Spread, row.CappedOversubSats, capped)
		}
		if row.CappedOversubSats <= row.FullServiceSats {
			t.Errorf("spread %g: capped should slightly exceed full service", row.Spread)
		}
	}
}

func TestTable2GeometricWithinBand(t *testing.T) {
	// The uncalibrated (geometry-derived) sizes stay within 10% of the
	// paper and preserve the 1/(1+20s) scaling exactly.
	m := NewModel()
	r, err := m.Table2(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if rel(row.FullServiceSats, r.PaperFullService.At(row.Spread)) > 0.10 {
			t.Errorf("spread %g: geometric %d deviates >10%% from paper %d",
				row.Spread, row.FullServiceSats, r.PaperFullService.At(row.Spread))
		}
	}
	base := float64(r.Rows[0].FullServiceSats) * 21
	for _, row := range r.Rows[1:] {
		product := float64(row.FullServiceSats) * (1 + 20*row.Spread)
		if math.Abs(product-base)/base > 0.001 {
			t.Errorf("spread %g: scaling invariant broken", row.Spread)
		}
	}
}

func rel(got, want int) float64 {
	return math.Abs(float64(got-want)) / float64(want)
}

func TestFig2(t *testing.T) {
	m := NewModel()
	r, err := m.Fig2(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	lo := r.Fraction[len(r.Spreads)-1][0]  // worst corner: spread 14, oversub 5
	hi := r.Fraction[0][len(r.Oversubs)-1] // best corner: spread 2, oversub 30
	if lo > 0.5 || lo < 0.2 {
		t.Errorf("worst-corner fraction = %v, want ≈0.36 like the paper's scale", lo)
	}
	if hi < 0.85 {
		t.Errorf("best-corner fraction = %v, want ≈0.9+", hi)
	}
}

func TestFig3(t *testing.T) {
	m := NewModel()
	m.Fig3Spreads = []float64{5, 10}
	results, err := m.Fig3(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.FloorUnserved != 5128 {
			t.Errorf("floor = %d, want 5128", r.FloorUnserved)
		}
		if len(r.Points) == 0 || len(r.Steps) == 0 {
			t.Fatal("empty curve")
		}
		// Diminishing returns: the satellites-per-location cost of the
		// last step exceeds that of the first.
		first, last := r.Steps[0], r.Steps[len(r.Steps)-1]
		costFirst := float64(first.AdditionalSatellites) / float64(first.LocationsGained)
		costLast := float64(last.AdditionalSatellites) / float64(last.LocationsGained)
		if costLast <= costFirst {
			t.Errorf("no diminishing returns: first %v, last %v sats/location", costFirst, costLast)
		}
	}
	// Lower spread needs more satellites everywhere.
	if results[0].Points[0].Satellites <= results[1].Points[0].Satellites {
		t.Error("spread 5 should need more satellites than spread 10")
	}
}

// TestFig3CurvesExactlySized: every Figure 3 curve is allocated at its
// final length, for each of the paper's spreads at each
// oversubscription a scenario asks for, so a curve cached with its
// result holds no spare capacity. Where caps repeat the previous point,
// a curve sized to the cap sweep would be bigger than its points.
func TestFig3CurvesExactlySized(t *testing.T) {
	// At the serving scale the peak cell falls below the top caps, so
	// those caps repeat the last point.
	ds, err := GenerateDataset(context.Background(), WithSeed(7), WithScale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	compressed := 0
	for _, oversub := range []float64{10, 15, 20, 25, 30} {
		m := NewModel()
		m.MaxOversub = oversub
		results, err := m.Fig3(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		caps := m.Capacity.Beams.MaxServableLocations(oversub) - m.Capacity.Beams.LocationsPerBeam(oversub) + 1
		for _, r := range results {
			if len(r.Points) == 0 || cap(r.Points) != len(r.Points) {
				t.Errorf("spread %v oversub %v: %d points in a curve of capacity %d",
					r.Spread, oversub, len(r.Points), cap(r.Points))
			}
			if len(r.Points) < caps {
				compressed++
			}
		}
	}
	if compressed == 0 {
		t.Error("no curve repeats a point, so the sizing is untested")
	}
}

func TestFig4AgainstPaper(t *testing.T) {
	m := NewModel()
	r, err := m.Fig4(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]afford.Result{}
	for _, res := range r.Results {
		name := res.Plan.Name
		if res.Subsidy != nil {
			name += " w/ " + res.Subsidy.Name
		}
		byName[name] = res
	}
	starlink := byName["Starlink Residential"]
	if math.Abs(starlink.UnaffordableFraction-0.745) > 0.01 {
		t.Errorf("Starlink unaffordable fraction = %v, want 0.745", starlink.UnaffordableFraction)
	}
	if math.Abs(starlink.UnaffordableLocations-3.48e6) > 0.1e6 {
		t.Errorf("Starlink unaffordable = %v, want ≈3.5M", starlink.UnaffordableLocations)
	}
	lifeline := byName["Starlink Residential w/ Lifeline"]
	if math.Abs(lifeline.UnaffordableLocations-3.0e6) > 0.1e6 {
		t.Errorf("Lifeline unaffordable = %v, want ≈3.0M", lifeline.UnaffordableLocations)
	}
	// Terrestrial plans affordable for >99.99%.
	for _, name := range []string{"Xfinity 300", "Spectrum Internet Premier"} {
		if f := byName[name].UnaffordableFraction; f > 0.0001 {
			t.Errorf("%s unaffordable fraction = %v, want ≤0.0001", name, f)
		}
	}
	// Figure 4 curves decrease and reach ~zero before a 5.5% share.
	for name, curve := range r.Curves {
		for i := 1; i < len(curve); i++ {
			if curve[i].Count > curve[i-1].Count {
				t.Fatalf("%s: curve not nonincreasing", name)
			}
		}
		if last := curve[len(curve)-1]; last.Count != 0 {
			t.Errorf("%s: curve tail = %v, want 0", name, last.Count)
		}
	}
}

func TestRunFindings(t *testing.T) {
	m := NewModel()
	f, err := m.RunFindings(context.Background(), fullDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.F2SatellitesAtSpread2 < 40000 {
		t.Errorf("F2 satellites = %d, want >40000 (the paper's headline)", f.F2SatellitesAtSpread2)
	}
	if f.F2CurrentConstellation != 8000 {
		t.Errorf("current constellation constant = %d", f.F2CurrentConstellation)
	}
	if len(f.F3) == 0 {
		t.Error("no F3 steps")
	}
	if math.Abs(f.F4UnaffordableFraction-0.745) > 0.01 {
		t.Errorf("F4 fraction = %v", f.F4UnaffordableFraction)
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a, err := GenerateDataset(context.Background(), WithSeed(42), WithScale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDataset(context.Background(), WithSeed(42), WithScale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCells() != b.NumCells() || a.TotalLocations() != b.TotalLocations() {
		t.Fatal("same seed produced different datasets")
	}
	for i := range a.Cells.Len() {
		if a.Cells.At(i) != b.Cells.At(i) {
			t.Fatalf("cell %d differs", i)
		}
	}
	ca := a.Incomes.Counties()
	cb := b.Incomes.Counties()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("county %d differs", i)
		}
	}
}

func TestScenarioConstantsExposed(t *testing.T) {
	m := NewModel()
	if m.MaxOversub != 20 {
		t.Errorf("MaxOversub = %v, want 20", m.MaxOversub)
	}
	if m.AffordShare != 0.02 {
		t.Errorf("AffordShare = %v, want 0.02", m.AffordShare)
	}
}

// TestSizingValidatedBySimulator closes the loop between the analytic
// sizing model and the time-stepped simulator: a Walker shell of
// roughly the size Table 2 demands at beamspread 15 must let the
// greedy beam allocator serve nearly every demand cell, while the
// current ~1,584-satellite shell falls far short at the same spread.
func TestSizingValidatedBySimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("large simulation in -short mode")
	}
	ds := fullDataset(t)
	m := NewModel()
	required := m.Capacity.Size(ds.Distribution(), core.CappedOversub, 15, m.MaxOversub).Satellites

	cfg := sim.DefaultConfig()
	cfg.Spread = 15
	cfg.Oversub = m.MaxOversub
	cfg.Epochs = 2
	// Build a Walker shell close to the required size.
	planes := 72
	perPlane := (required + planes - 1) / planes
	cfg.Shell = orbit.Walker{
		AltitudeKm:     550,
		InclinationDeg: 53,
		Total:          planes * perPlane,
		Planes:         planes,
		Phasing:        13,
	}
	cells := wholeCells(ds.Cells)
	big, err := sim.Run(context.Background(), cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	// The analytically sufficient constellation serves nearly all
	// coverable cells (the ~5.6% Alaska band above the shell's reach is
	// uncoverable by any 53° fleet).
	if big.MeanServedFraction < 0.85 {
		t.Errorf("sized constellation (%d sats) served only %.3f of cells",
			cfg.Shell.Total, big.MeanServedFraction)
	}

	small := cfg
	small.Shell = orbit.StarlinkShell1()
	cur, err := sim.Run(context.Background(), small, cells)
	if err != nil {
		t.Fatal(err)
	}
	if cur.MeanServedFraction > 0.6*big.MeanServedFraction {
		t.Errorf("current shell served %.3f, expected far below the sized constellation's %.3f",
			cur.MeanServedFraction, big.MeanServedFraction)
	}
}

// wholeCells reads every cell of a dataset's columns, in ID order.
func wholeCells(cells demand.Cells) []demand.Cell {
	out := make([]demand.Cell, cells.Len())
	for i := range out {
		out[i] = cells.At(i)
	}
	return out
}
