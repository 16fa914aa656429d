package core

import (
	"context"
	"strings"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
)

func TestAssessFleet(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	spreads := []float64{2, 10, 15}

	gen1, err := m.AssessFleet(context.Background(), d, constellation.StarlinkGen1(), spreads, 20)
	if err != nil {
		t.Fatal(err)
	}
	if gen1.TotalSatellites != 4408 {
		t.Errorf("Gen1 total = %d", gen1.TotalSatellites)
	}
	if gen1.EquivalentSatellites <= 0 {
		t.Errorf("Gen1 equivalent = %d", gen1.EquivalentSatellites)
	}
	if len(gen1.Rows) != 3 {
		t.Fatalf("got %d rows", len(gen1.Rows))
	}
	// Gen1 cannot meet the requirement at low beamspread.
	if gen1.Rows[0].CoverageRatio >= 1 {
		t.Errorf("Gen1 covers beamspread 2?! ratio=%v", gen1.Rows[0].CoverageRatio)
	}
	// Coverage ratio improves with beamspread.
	for i := 1; i < len(gen1.Rows); i++ {
		if gen1.Rows[i].CoverageRatio <= gen1.Rows[i-1].CoverageRatio {
			t.Error("coverage ratio not improving with beamspread")
		}
	}

	gen2, err := m.AssessFleet(context.Background(), d, constellation.StarlinkGen2(), spreads, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Gen2's density at the binding latitude far exceeds Gen1's.
	if gen2.EquivalentSatellites <= gen1.EquivalentSatellites {
		t.Errorf("Gen2 equivalent (%d) should exceed Gen1 (%d)",
			gen2.EquivalentSatellites, gen1.EquivalentSatellites)
	}
}

// singleCellDist is the degenerate demand geography: the whole nation's
// unserved demand in one cell.
func singleCellDist(t *testing.T, locations int) *demand.Distribution {
	t.Helper()
	return distOf(t, []demand.Cell{
		{ID: 1, Locations: locations, Center: geo.LatLng{Lat: 35.5, Lng: -106.3}, CountyFIPS: "35049"},
	})
}

func TestAssessFleetErrorPaths(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	ctx := context.Background()

	cases := []struct {
		name    string
		fleet   constellation.Fleet
		spreads []float64
		wantErr string
	}{
		{"empty fleet", constellation.Fleet{}, []float64{2}, "no shells"},
		{"named fleet without shells", constellation.Fleet{Name: "x"}, []float64{2}, "no shells"},
		{"no spreads", constellation.StarlinkGen1(), nil, "no beamspread factors"},
		{"empty spreads", constellation.StarlinkGen1(), []float64{}, "no beamspread factors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := m.AssessFleet(ctx, d, tc.fleet, tc.spreads, 20)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}

	// A cancelled context aborts the sweep.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.AssessFleet(cancelled, d, constellation.StarlinkGen1(), []float64{2, 10}, 20); err == nil {
		t.Error("cancelled context should abort the assessment")
	}
}

func TestAssessFleetSingleCellDemand(t *testing.T) {
	// One dense cell: the assessment still works, the binding cell is
	// that cell, and the requirement is positive at every spread.
	m := NewModel()
	d := singleCellDist(t, 3000)
	a, err := m.AssessFleet(context.Background(), d, constellation.StarlinkGen1(), []float64{1, 2, 5}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.BindingLatDeg != 35.5 {
		t.Errorf("binding latitude = %v, want the single cell's 35.5", a.BindingLatDeg)
	}
	for _, row := range a.Rows {
		if row.RequiredSatellites <= 0 {
			t.Errorf("spread %g: nonpositive requirement %d", row.Spread, row.RequiredSatellites)
		}
		if row.CoverageRatio <= 0 {
			t.Errorf("spread %g: nonpositive coverage ratio %v", row.Spread, row.CoverageRatio)
		}
	}
}

func TestAssessFleetSingleSpread(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	a, err := m.AssessFleet(context.Background(), d, constellation.StarlinkGen2(), []float64{2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(a.Rows))
	}
	// The row must agree exactly with a direct sizing call.
	want := m.Size(d, CappedOversub, 2, 20).Satellites
	if a.Rows[0].RequiredSatellites != want {
		t.Errorf("row requirement %d != direct Size %d", a.Rows[0].RequiredSatellites, want)
	}
}
