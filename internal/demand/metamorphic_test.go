package demand

// Metamorphic oracles for demand aggregation: re-partitioning locations
// into a coarser or finer hexgrid must conserve what the capacity model
// actually consumes — every underserved location lands in exactly one
// cell at every resolution. The paper's per-cell distribution (Fig. 1)
// is resolution-dependent by design, but its integral is not.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/testutil"
)

// syntheticLocations builds a deterministic CONUS-spread location set
// with a mix of served and underserved records.
func syntheticLocations(n int) []Location {
	rng := rand.New(rand.NewSource(7))
	locs := make([]Location, n)
	for i := range locs {
		l := Location{
			ID: uint64(i + 1),
			Pos: geo.LatLng{
				Lat: 26 + rng.Float64()*21, // 26..47 N
				Lng: -120 + rng.Float64()*45,
			},
			CountyFIPS: fmt.Sprintf("%05d", 1000+rng.Intn(300)),
			StateAbbr:  "TX",
			Technology: "none",
		}
		// A quarter of the set is reliably served and must be ignored
		// by aggregation at every resolution.
		if i%4 == 0 {
			l.MaxDownMbps, l.MaxUpMbps = 300, 30
			l.Technology = "cable"
		}
		locs[i] = l
	}
	return locs
}

func TestAggregateConservesLocationsAcrossResolutions(t *testing.T) {
	locs := syntheticLocations(5000)
	underserved := 0
	for _, l := range locs {
		if l.Underserved() {
			underserved++
		}
	}

	totals := make(map[string]int64)
	for _, res := range []hexgrid.Resolution{3, 4, 5, 6} {
		cells, err := Aggregate(locs, res)
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		var sum int64
		for _, c := range cells {
			sum += int64(c.Locations)
		}
		totals[fmt.Sprintf("res%d", res)] = sum
	}
	totals["underserved-input"] = int64(underserved)
	testutil.RequireConserved(t, "underserved locations across hexgrid resolutions", totals)
}

func TestAggregateRefinementNesting(t *testing.T) {
	// Coarser grids have no more cells than finer ones, and the peak
	// cell can only grow as cells merge.
	locs := syntheticLocations(5000)
	var numCells, peaks []float64
	for _, res := range []hexgrid.Resolution{6, 5, 4, 3} {
		cells, err := Aggregate(locs, res)
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		dist, err := distOf(cells)
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		numCells = append(numCells, float64(dist.NumCells()))
		peaks = append(peaks, float64(dist.Peak().Locations))
	}
	testutil.RequireMonotone(t, "cell count as resolution coarsens", numCells, testutil.NonIncreasing)
	testutil.RequireMonotone(t, "peak cell as resolution coarsens", peaks, testutil.NonDecreasing)
}

func TestDistributionConservesAggregateTotal(t *testing.T) {
	// NewDistribution drops zero-demand cells but must conserve the
	// location total, and its suffix sums must tie out against it.
	locs := syntheticLocations(3000)
	cells, err := Aggregate(locs, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range cells {
		sum += int64(c.Locations)
	}
	dist, err := distOf(cells)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireConserved(t, "distribution total vs cell sum", map[string]int64{
		"cells":        sum,
		"distribution": int64(dist.TotalLocations()),
		"above-zero":   int64(dist.LocationsInCellsAbove(0)),
	})

	// ServedFractionWithCap is monotone in the cap and saturates at 1.
	peak := dist.Peak().Locations
	caps := []int{0, 1, peak / 4, peak / 2, peak, peak + 1}
	sort.Ints(caps)
	var served []float64
	for _, cap := range caps {
		served = append(served, dist.ServedFractionWithCap(cap))
	}
	testutil.RequireMonotone(t, "served fraction vs per-cell cap", served, testutil.NonDecreasing)
	if got := dist.ServedFractionWithCap(peak); got != 1 {
		t.Errorf("cap at peak must serve everyone, got %v", got)
	}
}
