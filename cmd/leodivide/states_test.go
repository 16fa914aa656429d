package main

import (
	"context"
	"testing"

	"leodivide"
	"leodivide/internal/bdc"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
)

func stateTestData(t *testing.T) ([]demand.Cell, *census.Table) {
	t.Helper()
	cfg := bdc.DefaultGenConfig()
	cfg.TotalLocations = 120000
	cfg.Peaks = []bdc.PeakCell{
		{Locations: 4000, Anchor: geo.LatLng{Lat: 35.5, Lng: -106.3}},
	}
	cells, err := bdc.GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		t.Fatal(err)
	}
	weights := dist.CountyWeights()
	cw := make([]census.CountyWeight, 0, len(weights))
	for f, w := range weights {
		cw = append(cw, census.CountyWeight{FIPS: f, Weight: float64(w), PovertyRank: float64(len(f) % 7)})
	}
	table, err := census.AssignIncomes(cw, census.DefaultIncomeAnchors())
	if err != nil {
		t.Fatal(err)
	}
	return cells, table
}

func TestByState(t *testing.T) {
	cells, incomes := stateTestData(t)
	profiles, err := byState(defaultStateConfig(), cells, incomes)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) < 40 {
		t.Fatalf("only %d states profiled", len(profiles))
	}
	totalLocs := 0
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Abbr] {
			t.Fatalf("state %s profiled twice", p.Abbr)
		}
		seen[p.Abbr] = true
		totalLocs += p.Locations
		if p.Locations <= 0 || p.Cells <= 0 {
			t.Errorf("%s: empty profile %+v", p.Abbr, p)
		}
		if p.PeakCellLocations < p.MedianCellLocations {
			t.Errorf("%s: peak below median", p.Abbr)
		}
		if p.RequiredOversub < 1 {
			t.Errorf("%s: oversubscription below 1", p.Abbr)
		}
		if p.UnaffordableFraction < 0 || p.UnaffordableFraction > 1 {
			t.Errorf("%s: unaffordable fraction %v", p.Abbr, p.UnaffordableFraction)
		}
	}
	// Sorted by locations descending.
	for i := 1; i < len(profiles); i++ {
		if profiles[i].Locations > profiles[i-1].Locations {
			t.Fatal("profiles not sorted")
		}
	}
	// The rollup loses only cells outside all state frames.
	if totalLocs < 110000 {
		t.Errorf("state rollup covers %d of 120000 locations", totalLocs)
	}
	// The NM peak cell appears in New Mexico's profile.
	for _, p := range profiles {
		if p.Abbr == "NM" && p.PeakCellLocations != 4000 {
			t.Errorf("NM peak = %d, want 4000", p.PeakCellLocations)
		}
	}
}

func TestNationalAggregation(t *testing.T) {
	cells, incomes := stateTestData(t)
	profiles, err := byState(defaultStateConfig(), cells, incomes)
	if err != nil {
		t.Fatal(err)
	}
	nat := national(profiles)
	if nat.PeakCellLocations != 4000 {
		t.Errorf("national peak = %d, want 4000", nat.PeakCellLocations)
	}
	if nat.Locations <= 0 || nat.Cells <= 0 {
		t.Errorf("national rollup empty: %+v", nat)
	}
	// National required oversubscription is the max over states.
	for _, p := range profiles {
		if p.RequiredOversub > nat.RequiredOversub {
			t.Fatal("national oversubscription below a state's")
		}
	}
}

func TestTopStressed(t *testing.T) {
	cells, incomes := stateTestData(t)
	profiles, err := byState(defaultStateConfig(), cells, incomes)
	if err != nil {
		t.Fatal(err)
	}
	top := topStressed(profiles, 5)
	if len(top) != 5 {
		t.Fatalf("got %d top states", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].RequiredOversub > top[i-1].RequiredOversub {
			t.Fatal("top stressed not sorted")
		}
	}
	// The state holding the peak cell must lead.
	if top[0].Abbr != "NM" {
		t.Errorf("most stressed state = %s, want NM", top[0].Abbr)
	}
	if got := topStressed(profiles, 1000); len(got) != len(profiles) {
		t.Errorf("over-long top list = %d", len(got))
	}
}

func TestByStateWithoutIncomes(t *testing.T) {
	cells, _ := stateTestData(t)
	profiles, err := byState(defaultStateConfig(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if p.UnaffordableFraction != 0 {
			t.Errorf("%s: affordability computed without incomes", p.Abbr)
		}
	}
}

// national aggregates profiles back to a national summary: the
// state→national consistency oracle for byState.
func national(profiles []stateProfile) stateProfile {
	out := stateProfile{Abbr: "US", Name: "United States"}
	for _, p := range profiles {
		out.Locations += p.Locations
		out.Cells += p.Cells
		out.UnservableAt20 += p.UnservableAt20
		if p.PeakCellLocations > out.PeakCellLocations {
			out.PeakCellLocations = p.PeakCellLocations
		}
		if p.RequiredOversub > out.RequiredOversub {
			out.RequiredOversub = p.RequiredOversub
		}
	}
	return out
}

// BenchmarkStates times the state rollup on a full-scale dataset, the
// path `leodivide states` runs. It is a profiling aid; nothing gates on
// its timings.
func BenchmarkStates(b *testing.B) {
	ds, err := leodivide.GenerateDataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultStateConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := byState(cfg, ds.Cells, ds.Incomes); err != nil {
			b.Fatal(err)
		}
	}
}
