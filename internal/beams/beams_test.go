package beams

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.BeamsPerSatellite != 24 {
		t.Errorf("BeamsPerSatellite = %d, want 24", c.BeamsPerSatellite)
	}
	if c.MaxBeamsPerCell != 4 {
		t.Errorf("MaxBeamsPerCell = %d, want 4", c.MaxBeamsPerCell)
	}
	if math.Abs(c.MaxCellCapacityGbps()-17.3) > 1e-9 {
		t.Errorf("MaxCellCapacityGbps = %v, want 17.3", c.MaxCellCapacityGbps())
	}
}

func TestValidate(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.BeamCapacityGbps = 0 },
		func(c *Config) { c.BeamsPerSatellite = 0 },
		func(c *Config) { c.MaxBeamsPerCell = 0 },
		func(c *Config) { c.MaxBeamsPerCell = c.BeamsPerSatellite + 1 },
		func(c *Config) { c.DemandPerLocationGbps = -1 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestPaperThresholds(t *testing.T) {
	c := DefaultConfig()
	// One beam at 20:1 serves 865 locations; a 4-beam cell 3,460.
	if got := c.LocationsPerBeam(20); got != 865 {
		t.Errorf("LocationsPerBeam(20) = %d, want 865", got)
	}
	if got := c.MaxServableLocations(20); got != 3460 {
		t.Errorf("MaxServableLocations(20) = %d, want 3460", got)
	}
	// The peak cell (5,998 locations) needs ~34.7:1 for full service.
	if got := c.RequiredOversubscription(5998); math.Abs(got-34.67) > 0.02 {
		t.Errorf("RequiredOversubscription(5998) = %v, want ≈34.67", got)
	}
	// Cells within one beam's capacity need no oversubscription.
	if got := c.RequiredOversubscription(100); got != 1 {
		t.Errorf("RequiredOversubscription(100) = %v, want 1", got)
	}
	if got := c.RequiredOversubscription(0); got != 1 {
		t.Errorf("RequiredOversubscription(0) = %v, want 1", got)
	}
}

func TestBeamsForCell(t *testing.T) {
	c := DefaultConfig()
	cases := []struct {
		locations int
		oversub   float64
		wantBeams int
		wantOK    bool
	}{
		{0, 20, 1, true},
		{1, 20, 1, true},
		{865, 20, 1, true},
		{866, 20, 2, true},
		{1730, 20, 2, true},
		{1731, 20, 3, true},
		{2595, 20, 3, true},
		{2596, 20, 4, true},
		{3460, 20, 4, true},
		{3461, 20, 4, false},
		{5998, 20, 4, false},
		{5998, 35, 4, true},
		{100, 1, 3, true}, // 10 Gbps at 1:1 needs 3 beams
	}
	for _, tc := range cases {
		beams, ok := c.BeamsForCell(tc.locations, tc.oversub)
		if beams != tc.wantBeams || ok != tc.wantOK {
			t.Errorf("BeamsForCell(%d, %v) = (%d, %v), want (%d, %v)",
				tc.locations, tc.oversub, beams, ok, tc.wantBeams, tc.wantOK)
		}
	}
}

// Property: beams required grows with locations and shrinks with
// oversubscription.
func TestBeamsMonotonicityProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(locRaw uint16, oversubRaw uint8) bool {
		loc := int(locRaw) % 6000
		oversub := 1 + float64(oversubRaw%35)
		b1, _ := c.BeamsForCell(loc, oversub)
		b2, _ := c.BeamsForCell(loc+100, oversub)
		b3, _ := c.BeamsForCell(loc, oversub+5)
		return b2 >= b1 && b3 <= b1 && b1 >= 1 && b1 <= c.MaxBeamsPerCell
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a cell at exactly the servable cap fits, one more does not.
func TestServableBoundaryProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(oversubRaw uint8) bool {
		oversub := 1 + float64(oversubRaw%40)
		capLoc := c.MaxServableLocations(oversub)
		_, okAt := c.BeamsForCell(capLoc, oversub)
		_, okOver := c.BeamsForCell(capLoc+1, oversub)
		return okAt && !okOver
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpreadCapacity(t *testing.T) {
	c := DefaultConfig()
	if got := c.SpreadCellCapacityGbps(1); math.Abs(got-4.325) > 1e-9 {
		t.Errorf("spread 1 capacity = %v, want 4.325", got)
	}
	if got := c.SpreadCellCapacityGbps(10); math.Abs(got-0.4325) > 1e-9 {
		t.Errorf("spread 10 capacity = %v, want 0.4325", got)
	}
	// Spread below 1 clamps.
	if got := c.SpreadCellCapacityGbps(0.5); math.Abs(got-4.325) > 1e-9 {
		t.Errorf("spread 0.5 capacity = %v, want clamp to 4.325", got)
	}
	// The paper's Figure 2 threshold: 43.25·ρ/s locations.
	if got := c.MaxLocationsUnderSpread(20, 2); got != 432 {
		t.Errorf("MaxLocationsUnderSpread(20, 2) = %d, want 432", got)
	}
	if got := c.MaxLocationsUnderSpread(5, 14); got != 15 {
		t.Errorf("MaxLocationsUnderSpread(5, 14) = %d, want 15", got)
	}
}

func TestCellsPerSatellite(t *testing.T) {
	c := DefaultConfig()
	// The paper's 1 + 20s rule with 4 beams pinned on the peak cell.
	cases := []struct {
		spread float64
		beams  int
		want   float64
	}{
		{1, 4, 21}, {2, 4, 41}, {5, 4, 101}, {10, 4, 201}, {15, 4, 301},
		{1, 1, 24}, {10, 1, 231},
	}
	for _, tc := range cases {
		if got := c.CellsPerSatellite(tc.spread, tc.beams); got != tc.want {
			t.Errorf("CellsPerSatellite(%v, %d) = %v, want %v", tc.spread, tc.beams, got, tc.want)
		}
	}
	// Clamping.
	if got := c.CellsPerSatellite(0.5, 0); got != 24 {
		t.Errorf("clamped CellsPerSatellite = %v, want 24", got)
	}
	if got := c.CellsPerSatellite(1, 100); got != 1 {
		t.Errorf("over-beamed CellsPerSatellite = %v, want 1", got)
	}
}

func TestCellDemand(t *testing.T) {
	c := DefaultConfig()
	if got := c.CellDemandGbps(5998); math.Abs(got-599.8) > 1e-9 {
		t.Errorf("CellDemandGbps(5998) = %v, want 599.8", got)
	}
}
