package beams

// Metamorphic oracles for the beam model: monotonicity relations that
// must hold for any coherent parameterization, not just the paper's.
// The paper's qualitative claims rest on these — more oversubscription
// serves bigger cells (Finding 1), more spreading dilutes per-cell
// capacity (Table 2's beamspread axis), more beams mean more capacity.

import (
	"testing"

	"leodivide/internal/testutil"
)

func TestCapacityMonotoneInBeamCount(t *testing.T) {
	var caps, cells []float64
	for _, beams := range []int{4, 8, 16, 24, 32, 48} {
		c := DefaultConfig()
		c.BeamsPerSatellite = beams
		if err := c.Validate(); err != nil {
			t.Fatalf("beams=%d: %v", beams, err)
		}
		// Per-satellite user capacity grows strictly with beam count...
		caps = append(caps, float64(c.BeamsPerSatellite)*c.BeamCapacityGbps)
		// ...and so does the coverage footprint at fixed spread.
		cells = append(cells, c.CellsPerSatellite(2, 1))
	}
	testutil.RequireMonotone(t, "satellite capacity vs beam count", caps, testutil.StrictlyIncreasing)
	testutil.RequireMonotone(t, "cells per satellite vs beam count", cells, testutil.StrictlyIncreasing)
}

func TestCapacityMonotoneInSpectrum(t *testing.T) {
	// Beam capacity is spectrum × efficiency; scaling either up must
	// scale servable cell size up at fixed oversubscription.
	var maxLocs []float64
	for _, mult := range []float64{0.5, 1, 1.5, 2, 4} {
		c := DefaultConfig()
		c.BeamCapacityGbps *= mult
		maxLocs = append(maxLocs, float64(c.MaxServableLocations(20)))
	}
	testutil.RequireMonotone(t, "max servable cell vs beam capacity", maxLocs, testutil.StrictlyIncreasing)
}

func TestServabilityMonotoneInOversubscription(t *testing.T) {
	c := DefaultConfig()
	var maxLocs, perBeam []float64
	for _, oversub := range []float64{1, 5, 10, 20, 35, 50} {
		maxLocs = append(maxLocs, float64(c.MaxServableLocations(oversub)))
		perBeam = append(perBeam, float64(c.LocationsPerBeam(oversub)))
	}
	testutil.RequireMonotone(t, "max servable cell vs oversub", maxLocs, testutil.StrictlyIncreasing)
	testutil.RequireMonotone(t, "locations per beam vs oversub", perBeam, testutil.StrictlyIncreasing)
}

func TestSpreadDilutesCapacity(t *testing.T) {
	c := DefaultConfig()
	var perCell, maxLocs []float64
	for _, spread := range []float64{1, 2, 5, 10, 15} {
		perCell = append(perCell, c.SpreadCellCapacityGbps(spread))
		maxLocs = append(maxLocs, float64(c.MaxLocationsUnderSpread(20, spread)))
	}
	testutil.RequireMonotone(t, "per-cell capacity vs spread", perCell, testutil.StrictlyDecreasing)
	testutil.RequireMonotone(t, "servable locations vs spread", maxLocs, testutil.StrictlyDecreasing)

	// Spreading wider covers more cells per satellite at fixed beams.
	var cells []float64
	for _, spread := range []float64{1, 2, 5, 10, 15} {
		cells = append(cells, c.CellsPerSatellite(spread, 1))
	}
	testutil.RequireMonotone(t, "cells per satellite vs spread", cells, testutil.StrictlyIncreasing)
}

func TestBeamsForCellMonotoneInDemand(t *testing.T) {
	c := DefaultConfig()
	var needed []float64
	for _, locs := range []int{0, 1, 500, 1000, 2000, 3000, 3460} {
		b, servable := c.BeamsForCell(locs, 20)
		if !servable {
			t.Fatalf("%d locations unexpectedly unservable at 20:1", locs)
		}
		needed = append(needed, float64(b))
	}
	testutil.RequireMonotone(t, "beams needed vs cell size", needed, testutil.NonDecreasing)

	// The servability boundary agrees with MaxServableLocations exactly.
	limit := c.MaxServableLocations(20)
	if _, ok := c.BeamsForCell(limit, 20); !ok {
		t.Errorf("cell at the boundary (%d) must be servable", limit)
	}
	if _, ok := c.BeamsForCell(limit+1, 20); ok {
		t.Errorf("cell just past the boundary (%d) must not be servable", limit+1)
	}
}

func TestRequiredOversubscriptionMonotone(t *testing.T) {
	c := DefaultConfig()
	var req []float64
	for _, locs := range []int{0, 100, 1000, 3460, 5998, 10000} {
		req = append(req, c.RequiredOversubscription(locs))
	}
	testutil.RequireMonotone(t, "required oversub vs cell size", req, testutil.NonDecreasing)
	// The paper's peak cell needs ~35:1 (Table 1).
	testutil.RequireWithinRel(t, "peak-cell oversubscription", c.RequiredOversubscription(5998), 34.7, 0.01)
}
