package sim

import (
	"context"

	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/orbit"
)

// testCells places a modest demand field across CONUS latitudes.
func testCells() []demand.Cell {
	var cells []demand.Cell
	id := 1
	for lat := 28.0; lat <= 46; lat += 3 {
		for lng := -120.0; lng <= -75; lng += 5 {
			cells = append(cells, demand.Cell{
				ID:        hexgrid.CellID(id),
				Locations: 50 + id*7%800,
				Center:    geo.LatLng{Lat: lat, Lng: lng},
			})
			id++
		}
	}
	return cells
}

func smallShell(total, planes int) orbit.Walker {
	return orbit.Walker{
		AltitudeKm:     550,
		InclinationDeg: 53,
		Total:          total,
		Planes:         planes,
		Phasing:        1,
	}
}

func TestRunBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shell = smallShell(396, 18) // quarter-density shell for speed
	cfg.Epochs = 4
	res, err := Run(context.Background(), cfg, testCells())
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 {
		t.Errorf("Epochs = %d", res.Epochs)
	}
	checkFraction := func(name string, v float64) {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v out of [0,1]", name, v)
		}
	}
	checkFraction("MeanCoveredFraction", res.MeanCoveredFraction)
	checkFraction("MinCoveredFraction", res.MinCoveredFraction)
	checkFraction("MeanServedFraction", res.MeanServedFraction)
	checkFraction("MinServedFraction", res.MinServedFraction)
	if res.MinCoveredFraction > res.MeanCoveredFraction+1e-9 {
		t.Error("min covered exceeds mean")
	}
	if res.MeanServedFraction > res.MeanCoveredFraction+1e-9 {
		t.Error("served cells exceed covered cells")
	}
	if res.MeanVisibleSats <= 0 {
		t.Errorf("MeanVisibleSats = %v", res.MeanVisibleSats)
	}
}

func TestMoreSatellitesMoreCoverage(t *testing.T) {
	cells := testCells()
	small := DefaultConfig()
	small.Shell = smallShell(180, 12)
	small.Epochs = 3
	big := small
	big.Shell = smallShell(1080, 36)
	rs, err := Run(context.Background(), small, cells)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), big, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanCoveredFraction < rs.MeanCoveredFraction {
		t.Errorf("coverage fell with more satellites: %v -> %v",
			rs.MeanCoveredFraction, rb.MeanCoveredFraction)
	}
	if rb.MeanVisibleSats <= rs.MeanVisibleSats {
		t.Errorf("visibility fell with more satellites: %v -> %v",
			rs.MeanVisibleSats, rb.MeanVisibleSats)
	}
}

func TestFullShellCoversConus(t *testing.T) {
	if testing.Short() {
		t.Skip("full shell propagation in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Epochs = 4
	res, err := Run(context.Background(), cfg, testCells())
	if err != nil {
		t.Fatal(err)
	}
	// The real first shell keeps CONUS cells covered essentially
	// always at a 25° mask.
	if res.MinCoveredFraction < 0.95 {
		t.Errorf("CONUS coverage = %v, want ≥0.95", res.MinCoveredFraction)
	}
}

func TestValidation(t *testing.T) {
	cells := testCells()
	bad := DefaultConfig()
	bad.Epochs = 0
	if _, err := Run(context.Background(), bad, cells); err == nil {
		t.Error("zero epochs should fail")
	}
	bad = DefaultConfig()
	bad.StepSeconds = 0
	if _, err := Run(context.Background(), bad, cells); err == nil {
		t.Error("zero step should fail")
	}
	bad = DefaultConfig()
	bad.MinElevationDeg = 95
	if _, err := Run(context.Background(), bad, cells); err == nil {
		t.Error("bad elevation should fail")
	}
	bad = DefaultConfig()
	bad.Shell.Total = 7 // not divisible by planes
	if _, err := Run(context.Background(), bad, cells); err == nil {
		t.Error("bad shell should fail")
	}
	if _, err := Run(context.Background(), DefaultConfig(), nil); err == nil {
		t.Error("no cells should fail")
	}
}

func TestAllocatorPrefersFeasible(t *testing.T) {
	// One dense cell and many light cells sharing one satellite's
	// beams: the dense cell needs 4 dedicated beams, the light cells
	// one spread slot each.
	cfg := DefaultConfig()
	cfg.Shell = smallShell(396, 18)
	cfg.Epochs = 2
	cfg.Spread = 4
	var cells []demand.Cell
	cells = append(cells, demand.Cell{ID: 1, Locations: 3000, Center: geo.LatLng{Lat: 38, Lng: -100}})
	for i := 0; i < 30; i++ {
		cells = append(cells, demand.Cell{
			ID:        hexgrid.CellID(2 + i),
			Locations: 100,
			Center:    geo.LatLng{Lat: 38 + float64(i%5), Lng: -100 + float64(i/5)},
		})
	}
	res, err := Run(context.Background(), cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanServedFraction == 0 {
		t.Error("allocator served nothing")
	}
}
