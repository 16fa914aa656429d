package core

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/orbit"
)

// paperDist builds a small distribution with the paper's five dense
// cells plus a body, at controlled latitudes.
func paperDist(t *testing.T) *demand.Distribution {
	t.Helper()
	cells := []demand.Cell{
		{ID: 1, Locations: 5998, Center: geo.LatLng{Lat: 35.5, Lng: -106.3}},
		{ID: 2, Locations: 4700, Center: geo.LatLng{Lat: 34.8, Lng: -87.2}},
		{ID: 3, Locations: 4300, Center: geo.LatLng{Lat: 34.3, Lng: -89.9}},
		{ID: 4, Locations: 3800, Center: geo.LatLng{Lat: 36.9, Lng: -83.1}},
		{ID: 5, Locations: 3630, Center: geo.LatLng{Lat: 34.9, Lng: -111.5}},
	}
	// A body of cells well below the 4-beam threshold.
	for i := 0; i < 100; i++ {
		cells = append(cells, demand.Cell{
			ID:        hexgrid.CellID(100 + i),
			Locations: 10 + i*20,
			Center:    geo.LatLng{Lat: 30 + float64(i%15), Lng: -120 + float64(i)},
		})
	}
	return distOf(t, cells)
}

// distOf is the distribution of cells, through their columns.
func distOf(t *testing.T, cells []demand.Cell) *demand.Distribution {
	t.Helper()
	c, err := demand.NewCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	d, err := demand.NewDistribution(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCapacityTable(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	c := m.Capacity(d)
	if c.UTDownlinkMHz != 3850 {
		t.Errorf("UTDownlinkMHz = %v", c.UTDownlinkMHz)
	}
	if c.PeakCellLocations != 5998 {
		t.Errorf("PeakCellLocations = %d", c.PeakCellLocations)
	}
	if math.Abs(c.PeakCellDemandGbps-599.8) > 1e-9 {
		t.Errorf("PeakCellDemandGbps = %v", c.PeakCellDemandGbps)
	}
	if math.Abs(c.MaxOversubscription-599.8/17.3) > 1e-9 {
		t.Errorf("MaxOversubscription = %v", c.MaxOversubscription)
	}
}

func TestOversubscription(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	o := m.Oversubscription(d, 20)
	if o.CapLocations != 3460 {
		t.Errorf("CapLocations = %d, want 3460", o.CapLocations)
	}
	if o.CellsAboveCap != 5 {
		t.Errorf("CellsAboveCap = %d, want 5", o.CellsAboveCap)
	}
	if o.LocationsInCellsAboveCap != 22428 {
		t.Errorf("LocationsInCellsAboveCap = %d, want 22428", o.LocationsInCellsAboveCap)
	}
	if o.ExcessLocations != 5128 {
		t.Errorf("ExcessLocations = %d, want 5128", o.ExcessLocations)
	}
	if o.ServedFractionAtCap <= 0.9 || o.ServedFractionAtCap >= 1 {
		t.Errorf("ServedFractionAtCap = %v", o.ServedFractionAtCap)
	}
}

func TestEffectiveCellsCalibrated(t *testing.T) {
	m := NewModel().Calibrated()
	// At the calibration latitude the effective cell count equals the
	// paper's fitted constant.
	if got := m.EffectiveCells(calibrationLatDeg); math.Abs(got-PaperEffectiveCells) > 1 {
		t.Errorf("EffectiveCells(ref) = %v, want %v", got, float64(PaperEffectiveCells))
	}
	// Lower latitude (lower density) needs more effective cells.
	if m.EffectiveCells(25) <= m.EffectiveCells(calibrationLatDeg) {
		t.Error("effective cells should grow toward the equator")
	}
}

func TestConstellationSizePaperScaling(t *testing.T) {
	m := NewModel().Calibrated()
	// N(s)·(1+20s) is constant: the paper's Table 2 invariant.
	lat := calibrationLatDeg
	base := float64(m.ConstellationSize(1, 4, lat)) * 21
	for _, s := range []float64{2, 5, 10, 15} {
		n := m.ConstellationSize(s, 4, lat)
		product := float64(n) * (1 + 20*s)
		if math.Abs(product-base)/base > 0.001 {
			t.Errorf("spread %v: N·(1+20s) = %v, want %v", s, product, base)
		}
	}
	// And the absolute sizes match the paper's full-service column
	// within rounding.
	want := map[float64]int{1: 79287, 2: 40611, 5: 16486, 10: 8284, 15: 5532}
	for s, w := range want {
		got := m.ConstellationSize(s, 4, lat)
		if math.Abs(float64(got-w))/float64(w) > 0.002 {
			t.Errorf("spread %v: N = %d, paper %d", s, got, w)
		}
	}
}

func TestSizeScenarios(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	full := m.Size(d, FullService, 2, 0)
	capped := m.Size(d, CappedOversub, 2, 20)
	if full.PeakBeams != 4 || capped.PeakBeams != 4 {
		t.Errorf("peak beams = %d/%d, want 4/4", full.PeakBeams, capped.PeakBeams)
	}
	// Full service binds at the 4-beam cells under ~34.7:1 (the 5998
	// and 4700 cells); capped at 20:1 binds among all five dense cells,
	// whose lowest latitude (34.3) is south of the full-service binding
	// (34.8) — so the capped deployment needs slightly more satellites.
	if full.BindingCell.Center.Lat != 34.8 {
		t.Errorf("full-service binding lat = %v, want 34.8", full.BindingCell.Center.Lat)
	}
	if capped.BindingCell.Center.Lat != 34.3 {
		t.Errorf("capped binding lat = %v, want 34.3", capped.BindingCell.Center.Lat)
	}
	if capped.Satellites <= full.Satellites {
		t.Errorf("capped (%d) should exceed full service (%d)", capped.Satellites, full.Satellites)
	}
	ratio := float64(capped.Satellites) / float64(full.Satellites)
	if ratio > 1.05 {
		t.Errorf("scenario ratio = %v, want small (~1.01)", ratio)
	}
	if full.UnservedLocations != 0 {
		t.Errorf("full service leaves %d unserved", full.UnservedLocations)
	}
	if capped.UnservedLocations != 5128 {
		t.Errorf("capped leaves %d unserved, want 5128", capped.UnservedLocations)
	}
}

// Property: constellation size shrinks with beamspread and grows with
// peak beams.
func TestSizeMonotonicityProperty(t *testing.T) {
	m := NewModel()
	f := func(spreadRaw, beamsRaw uint8) bool {
		spread := 1 + float64(spreadRaw%15)
		beams := 1 + int(beamsRaw%4)
		n1 := m.ConstellationSize(spread, beams, 35)
		n2 := m.ConstellationSize(spread+1, beams, 35)
		n3 := m.ConstellationSize(spread, beams, 45) // denser latitude
		ok := n2 <= n1 && n3 <= n1
		if beams < 4 {
			n4 := m.ConstellationSize(spread, beams+1, 35)
			ok = ok && n4 >= n1
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeTable(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	rows, err := m.SizeTable(context.Background(), d, []float64{1, 2, 5, 10, 15}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FullServiceSats >= rows[i-1].FullServiceSats {
			t.Error("full-service sizes not decreasing in spread")
		}
		if rows[i].CappedOversubSats >= rows[i-1].CappedOversubSats {
			t.Error("capped sizes not decreasing in spread")
		}
	}
}

func TestServedFractionGrid(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	spreads := []float64{2, 8, 14}
	oversubs := []float64{5, 15, 30}
	grid, err := m.ServedFractionGrid(context.Background(), d, spreads, oversubs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spreads {
		for j := range oversubs {
			v := grid[i][j]
			if v < 0 || v > 1 {
				t.Fatalf("fraction out of range: %v", v)
			}
			// Monotone: more oversubscription serves more.
			if j > 0 && grid[i][j] < grid[i][j-1] {
				t.Error("fraction not monotone in oversubscription")
			}
			// Anti-monotone: more spreading serves less.
			if i > 0 && grid[i][j] > grid[i-1][j] {
				t.Error("fraction not anti-monotone in spread")
			}
		}
	}
}

func TestDiminishingReturns(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	pts, err := m.DiminishingReturns(context.Background(), d, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CapLocations <= pts[i-1].CapLocations {
			t.Fatal("caps not increasing")
		}
		if pts[i].UnservedLocations > pts[i-1].UnservedLocations {
			t.Fatal("unserved not decreasing as cap rises")
		}
		if pts[i].Satellites < pts[i-1].Satellites {
			t.Fatal("satellites not nondecreasing as service grows")
		}
		if pts[i].PeakBeams < pts[i-1].PeakBeams {
			t.Fatal("peak beams not nondecreasing")
		}
	}
	// The endpoint matches the capped sizing.
	last := pts[len(pts)-1]
	capped := m.Size(d, CappedOversub, 10, 20)
	if last.Satellites != capped.Satellites {
		t.Errorf("final point %d satellites, capped sizing %d", last.Satellites, capped.Satellites)
	}
	if last.UnservedLocations != 5128 {
		t.Errorf("final unserved = %d, want the 5128 floor", last.UnservedLocations)
	}
	// Step extraction: all steps positive in both axes.
	steps := StepCosts(pts)
	if len(steps) == 0 {
		t.Fatal("no steps")
	}
	for _, s := range steps {
		if s.AdditionalSatellites <= 0 || s.LocationsGained <= 0 {
			t.Errorf("non-positive step: %+v", s)
		}
	}
}

func TestDensityFactorConsistency(t *testing.T) {
	// EffectiveCells must equal A_earth/(A_cell·f) in geometric mode.
	m := NewModel()
	lat := 40.0
	f := orbit.DensityFactor(m.InclinationDeg, lat)
	want := geo.EarthAreaKm2 / (hexgrid.Resolution(5).AvgCellAreaKm2() * f)
	if got := m.EffectiveCells(lat); math.Abs(got-want) > 1e-6 {
		t.Errorf("EffectiveCells = %v, want %v", got, want)
	}
	// The cell-area constant is the grid's resolution-5 mean bit for
	// bit, so uncalibrated sizing matches the grid the demand lives on.
	if got, want := math.Float64bits(cellAreaKm2), math.Float64bits(hexgrid.Resolution(5).AvgCellAreaKm2()); got != want {
		t.Errorf("cellAreaKm2 = %v, want the resolution-5 mean %v", cellAreaKm2, hexgrid.Resolution(5).AvgCellAreaKm2())
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Scenario{FullService, CappedOversub, Scenario(9)} {
		if s.String() == "" {
			t.Error("empty scenario string")
		}
	}
}
