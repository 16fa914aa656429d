package demand

import (
	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

func TestReliablyServed(t *testing.T) {
	cases := []struct {
		down, up float64
		want     bool
	}{
		{100, 20, true},
		{300, 30, true},
		{99.9, 20, false},
		{100, 19.9, false},
		{0, 0, false},
	}
	for _, tc := range cases {
		if got := ReliablyServed(tc.down, tc.up); got != tc.want {
			t.Errorf("ReliablyServed(%v, %v) = %v, want %v", tc.down, tc.up, got, tc.want)
		}
	}
}

func TestLocationUnderserved(t *testing.T) {
	l := Location{MaxDownMbps: 25, MaxUpMbps: 3}
	if !l.Underserved() {
		t.Error("25/3 should be underserved")
	}
	l = Location{MaxDownMbps: 940, MaxUpMbps: 880, Technology: "fiber"}
	if l.Underserved() {
		t.Error("fiber location should be served")
	}
}

func TestCellDemand(t *testing.T) {
	c := Cell{Locations: 5998}
	if got := c.DemandGbps(); got != 599.8 {
		t.Errorf("DemandGbps = %v, want 599.8", got)
	}
}

func TestAggregate(t *testing.T) {
	center := geo.LatLng{Lat: 40, Lng: -100}
	other := geo.LatLng{Lat: 30, Lng: -90}
	mk := func(p geo.LatLng, county string, down float64) Location {
		return Location{Pos: p, CountyFIPS: county, MaxDownMbps: down, MaxUpMbps: 1}
	}
	locs := []Location{
		mk(center, "20001", 10),
		mk(center, "20001", 10),
		mk(center, "20003", 10),
		mk(other, "29001", 10),
		mk(other, "29001", 500), // underserved on upload (1 Mbps)
		{Pos: other, CountyFIPS: "29001", MaxDownMbps: 500, MaxUpMbps: 100}, // served; skipped
	}
	cells, err := Aggregate(locs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	byID := map[hexgrid.CellID]Cell{}
	for _, c := range cells {
		byID[c.ID] = c
	}
	c1 := byID[hexgrid.LatLngToCell(center, 5)]
	if c1.Locations != 3 {
		t.Errorf("center cell has %d locations, want 3", c1.Locations)
	}
	if c1.CountyFIPS != "20001" {
		t.Errorf("center cell county = %s, want plurality 20001", c1.CountyFIPS)
	}
	c2 := byID[hexgrid.LatLngToCell(other, 5)]
	if c2.Locations != 2 {
		t.Errorf("other cell has %d locations, want 2", c2.Locations)
	}
	if _, err := Aggregate(locs, hexgrid.Resolution(-1)); err == nil {
		t.Error("invalid resolution should fail")
	}
}

// buildDist creates a distribution from location counts at synthetic
// cells.
func buildDist(t *testing.T, counts ...int) *Distribution {
	t.Helper()
	cells := make([]Cell, len(counts))
	for i, n := range counts {
		cells[i] = Cell{
			ID:        hexgrid.CellID(i + 1),
			Locations: n,
			Center:    geo.LatLng{Lat: 35 + float64(i), Lng: -100},
		}
	}
	d, err := NewDistribution(cells)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDistributionBasics(t *testing.T) {
	d := buildDist(t, 10, 5, 100, 0, 50)
	if got := d.NumCells(); got != 4 { // zero-location cell dropped
		t.Errorf("NumCells = %d, want 4", got)
	}
	if got := d.TotalLocations(); got != 165 {
		t.Errorf("TotalLocations = %d, want 165", got)
	}
	if got := d.Peak().Locations; got != 100 {
		t.Errorf("Peak = %d, want 100", got)
	}
	if got := d.CellsAbove(50); got != 1 {
		t.Errorf("CellsAbove(50) = %d, want 1", got)
	}
	if got := d.CellsAbove(4); got != 4 {
		t.Errorf("CellsAbove(4) = %d, want 4", got)
	}
	if got := d.LocationsInCellsAbove(40); got != 150 {
		t.Errorf("LocationsInCellsAbove(40) = %d, want 150", got)
	}
	if got := d.ExcessAbove(40); got != 70 { // (100-40)+(50-40)
		t.Errorf("ExcessAbove(40) = %d, want 70", got)
	}
	if got := d.ExcessAbove(100); got != 0 {
		t.Errorf("ExcessAbove(100) = %d, want 0", got)
	}
	if got := d.ServedFractionWithCap(40); math.Abs(got-(1-70.0/165)) > 1e-12 {
		t.Errorf("ServedFractionWithCap(40) = %v", got)
	}
	if got := d.FractionOfCellsAtMost(10); got != 0.5 {
		t.Errorf("FractionOfCellsAtMost(10) = %v, want 0.5", got)
	}
}

func TestDistributionErrors(t *testing.T) {
	if _, err := NewDistribution(nil); err == nil {
		t.Error("empty cells should fail")
	}
	if _, err := NewDistribution([]Cell{{Locations: 0}}); err == nil {
		t.Error("all-zero cells should fail")
	}
	if _, err := NewDistribution([]Cell{{Locations: -1}}); err == nil {
		t.Error("negative locations should fail")
	}
}

func TestDistributionOrdering(t *testing.T) {
	d := buildDist(t, 3, 9, 1, 9)
	cells := d.Cells()
	for i := 1; i < len(cells); i++ {
		if cells[i].Locations > cells[i-1].Locations {
			t.Fatal("cells not sorted descending")
		}
	}
}

// Property: ExcessAbove is nonincreasing in the cap, and consistent
// with LocationsInCellsAbove/CellsAbove.
func TestExcessProperty(t *testing.T) {
	f := func(raw []uint16, capRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, 0, len(raw))
		anyPositive := false
		for _, v := range raw {
			n := int(v % 2000)
			counts = append(counts, n)
			anyPositive = anyPositive || n > 0
		}
		if !anyPositive {
			return true
		}
		cells := make([]Cell, len(counts))
		for i, n := range counts {
			cells[i] = Cell{ID: hexgrid.CellID(i + 1), Locations: n}
		}
		d, err := NewDistribution(cells)
		if err != nil {
			return false
		}
		t1 := int(capRaw % 2000)
		e1, e2 := d.ExcessAbove(t1), d.ExcessAbove(t1+10)
		if e2 > e1 {
			return false
		}
		// Identity: excess = locations in cells above cap − cap × count.
		want := d.LocationsInCellsAbove(t1) - t1*d.CellsAbove(t1)
		return e1 == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountyWeights(t *testing.T) {
	cells := []Cell{
		{ID: 1, Locations: 10, CountyFIPS: "01001"},
		{ID: 2, Locations: 20, CountyFIPS: "01001"},
		{ID: 3, Locations: 5, CountyFIPS: "02002"},
	}
	d, err := NewDistribution(cells)
	if err != nil {
		t.Fatal(err)
	}
	w := d.CountyWeights()
	if w["01001"] != 30 || w["02002"] != 5 {
		t.Errorf("CountyWeights = %v", w)
	}
}

func TestSummary(t *testing.T) {
	d := buildDist(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Max != 10 || s.Min != 1 {
		t.Errorf("Summary = %+v", s)
	}
	if got := d.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %d, want 5", got)
	}
}

func TestScale(t *testing.T) {
	cells := []Cell{
		{ID: 1, Locations: 100},
		{ID: 2, Locations: 1},
		{ID: 3, Locations: 0},
	}
	scaled, err := Scale(cells, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if scaled[0].Locations != 120 {
		t.Errorf("scaled[0] = %d, want 120", scaled[0].Locations)
	}
	// Small counts never vanish.
	down, err := Scale(cells, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if down[1].Locations != 1 {
		t.Errorf("scaled-down tiny cell = %d, want 1", down[1].Locations)
	}
	// Zero cells stay zero.
	if down[2].Locations != 0 {
		t.Errorf("zero cell became %d", down[2].Locations)
	}
	// Original untouched.
	if cells[0].Locations != 100 {
		t.Error("Scale mutated input")
	}
	if _, err := Scale(cells, 0); err == nil {
		t.Error("factor 0 should fail")
	}
}
