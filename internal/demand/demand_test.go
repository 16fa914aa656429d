package demand

import (
	"math"
	"slices"
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
	d, err := distOf(cells)
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
	if _, err := distOf(nil); err == nil {
		t.Error("empty cells should fail")
	}
	if _, err := distOf([]Cell{{Locations: 0}}); err == nil {
		t.Error("all-zero cells should fail")
	}
	if _, err := distOf([]Cell{{Locations: -1}}); err == nil {
		t.Error("negative locations should fail")
	}
}

func TestDistributionOrdering(t *testing.T) {
	d := buildDist(t, 3, 9, 1, 9)
	for i := 1; i < d.NumCells(); i++ {
		if d.Cell(i).Locations > d.Cell(i-1).Locations {
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
		d, err := distOf(cells)
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

// distOf is NewDistribution over NewCells(cells).
func distOf(cells []Cell) (*Distribution, error) {
	c, err := NewCells(cells)
	if err != nil {
		return nil, err
	}
	return NewDistribution(c)
}

// TestNewCells: the columns hold the cells with demand in ID order,
// equal IDs in input order, and At rebuilds each whole cell, county
// code included.
func TestNewCells(t *testing.T) {
	in := []Cell{
		{ID: 9, Locations: 4, CountyFIPS: "b", Center: geo.LatLng{Lat: 1, Lng: 2}},
		{ID: 3, Locations: 0, CountyFIPS: "z"},
		{ID: 3, Locations: 7, CountyFIPS: "a", Center: geo.LatLng{Lat: 3, Lng: 4}},
		{ID: 5, Locations: 1, CountyFIPS: "b", Center: geo.LatLng{Lat: 5, Lng: 6}},
		{ID: 3, Locations: 2, CountyFIPS: "c", Center: geo.LatLng{Lat: 7, Lng: 8}},
	}
	c, err := NewCells(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Cell{in[2], in[4], in[3], in[0]}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	for i, w := range want {
		if got := c.At(i); got != w {
			t.Errorf("At(%d) = %+v, want %+v", i, got, w)
		}
	}
	if !slices.Equal(c.codes, []string{"a", "b", "c"}) {
		t.Errorf("area codes %q, want the distinct codes of the kept cells, sorted", c.codes)
	}
	if _, err := NewCells([]Cell{{ID: 1, Locations: math.MaxInt32 + 1}}); err == nil {
		t.Error("a count beyond the int32 column should fail")
	}
}

// TestCellsBuilderRejects: the builder reports the first cell out of
// ID order, without demand, beyond the count column or outside the
// code table.
func TestCellsBuilderRejects(t *testing.T) {
	for name, add := range map[string]func(b *CellsBuilder){
		"descending id":  func(b *CellsBuilder) { b.Add(2, 1, 0, geo.LatLng{}); b.Add(1, 1, 0, geo.LatLng{}) },
		"zero locations": func(b *CellsBuilder) { b.Add(1, 0, 0, geo.LatLng{}) },
		"int32 overflow": func(b *CellsBuilder) { b.Add(1, math.MaxInt32+1, 0, geo.LatLng{}) },
		"area":           func(b *CellsBuilder) { b.Add(1, 1, 1, geo.LatLng{}) },
	} {
		b := NewCellsBuilder(2, []string{"a"})
		add(b)
		b.Add(9, 1, 0, geo.LatLng{})
		if _, err := b.Cells(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	b := NewCellsBuilder(2, []string{"a"})
	b.Add(1, 1, 0, geo.LatLng{})
	b.Add(1, math.MaxInt32, 0, geo.LatLng{})
	if c, err := b.Cells(); err != nil || c.Len() != 2 {
		t.Errorf("equal IDs at the column bounds: %d cells, %v", c.Len(), err)
	}
}
