package leodivide

// Region metamorphic oracles: relations the pluggable-region layer
// must satisfy regardless of calibration. Three families:
//
//  1. Identity — routing the US geography through the Region interface
//     must be indistinguishable from the legacy direct path (the golden
//     corpus pins the absolute bytes; this pins the dispatch).
//  2. Demand doubling — synthetic regions pin cell *sites* by seed
//     alone, so doubling the scale must reproduce the same geography
//     with per-cell counts doubled up to largest-remainder rounding.
//  3. Latitude shift — moving an otherwise identical demand band
//     poleward (within the constellation's inclination) must never
//     increase the required fleet, and the equator-to-mid-latitude
//     satellite premium must be strictly steeper for an inclined fleet
//     (Starlink, 53°) than for a near-polar one (OneWeb, 87.9°) —
//     the paper's latitude-density machinery, asked as an inequality.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"leodivide/internal/census"
	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/region"
	"leodivide/internal/testutil"
)

// TestRegionUSIdentity: an explicit -region us is byte-identical to the
// default. If dispatch ever forked the US path, caches keyed on the
// default region would silently diverge from explicit requests.
func TestRegionUSIdentity(t *testing.T) {
	ctx := context.Background()
	def, err := GenerateDataset(ctx, WithSeed(1), WithScale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := GenerateDataset(ctx, WithSeed(1), WithScale(0.02), WithRegion("us"))
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireEqual(t, "cells via explicit us region", def.Cells, explicit.Cells)
	testutil.RequireEqual(t, "incomes via explicit us region", def.Incomes.Counties(), explicit.Incomes.Counties())
	if def.Resolution != explicit.Resolution || def.Region != explicit.Region {
		t.Errorf("dataset identity drifted: default (%v, %q) vs explicit (%v, %q)",
			def.Resolution, def.Region, explicit.Resolution, explicit.Region)
	}
}

// TestRegionDemandDoubling: synthetic cell sites are a function of the
// seed alone, so doubling the scale keeps the geography fixed — same
// cell IDs, same district codes, in the same order — while the total
// doubles exactly and every per-cell count doubles up to the
// largest-remainder rounding bound.
func TestRegionDemandDoubling(t *testing.T) {
	ctx := context.Background()
	for _, key := range []string{"brazil-rural", "taipei-dense"} {
		r, ok := region.ByName(key)
		if !ok {
			t.Fatalf("region %q not registered", key)
		}
		lo, err := r.Generate(ctx, region.GenConfig{Seed: 1, Scale: 0.02})
		if err != nil {
			t.Fatalf("%s at 0.02: %v", key, err)
		}
		hi, err := r.Generate(ctx, region.GenConfig{Seed: 1, Scale: 0.04})
		if err != nil {
			t.Fatalf("%s at 0.04: %v", key, err)
		}
		if len(lo.Cells) != len(hi.Cells) {
			t.Fatalf("%s: cell count changed with scale: %d vs %d", key, len(lo.Cells), len(hi.Cells))
		}
		if got, want := hi.Dist.TotalLocations(), 2*lo.Dist.TotalLocations(); got != want {
			t.Errorf("%s: total at 0.04 is %d, want exactly %d", key, got, want)
		}
		for i := range lo.Cells {
			a, b := lo.Cells[i], hi.Cells[i]
			if a.ID != b.ID {
				t.Fatalf("%s: cell %d site moved with scale: %v vs %v", key, i, a.ID, b.ID)
			}
			if a.CountyFIPS != b.CountyFIPS {
				t.Fatalf("%s: cell %d district moved with scale: %s vs %s", key, i, a.CountyFIPS, b.CountyFIPS)
			}
			// Largest-remainder rounding moves at most 1 location per
			// split, but counts are assigned by sorted rank, and ±1
			// rounding can swap adjacent ranks — shifting a cell by the
			// gap between neighboring shape weights (largest near the
			// steep top of the brazil profile, measured ≤ 7 across
			// seeds). The window is 8: rank-local jitter, nowhere near
			// the ~60-location spacing of distinct shape tiers.
			testutil.RequireWithinAbs(t, fmt.Sprintf("%s cell %d count doubling", key, i),
				float64(b.Locations), 2*float64(a.Locations), 8)
		}
	}
}

// latitudeBand declares a synthetic demand band identical in every
// respect — total, cells, shape, footprint width — except its
// latitude. Identical demand makes the required fleet a pure probe of
// the constellation's latitude-density profile.
func latitudeBand(t *testing.T, centerLatDeg float64) region.Region {
	t.Helper()
	r, err := region.NewSynthetic(region.SyntheticSpec{
		Key:            fmt.Sprintf("band-%02.0f", centerLatDeg),
		Name:           fmt.Sprintf("Probe band at %.0f°", centerLatDeg),
		Description:    "latitude-shift oracle probe",
		Resolution:     5,
		LatMinDeg:      centerLatDeg - 4,
		LatMaxDeg:      centerLatDeg + 4,
		LngMinDeg:      -60,
		LngMaxDeg:      -44,
		TotalLocations: 200_000,
		Cells:          120,
		DensityAnchors: []region.DensityAnchor{{Q: 0, Weight: 1}, {Q: 1, Weight: 50}},
		Districts:      10,
		DistrictPrefix: "90",
		RegionAbbr:     "ZZ",
		IncomeAnchors: []census.QuantileAnchor{
			{Q: 0, Income: 8000}, {Q: 0.5, Income: 30000}, {Q: 1, Income: 120000},
		},
	})
	if err != nil {
		t.Fatalf("band at %v°: %v", centerLatDeg, err)
	}
	return r
}

// requiredSatellitesAt sizes a fleet for one band under one system,
// using the same capped sizing rule and single-shell-equivalent
// conversion as the xregion experiment.
func requiredSatellitesAt(t *testing.T, m Model, band region.Region) float64 {
	t.Helper()
	out, err := band.Generate(context.Background(), region.GenConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatalf("%s: %v", band.Key(), err)
	}
	sizing := m.Capacity.Size(out.Dist, core.CappedOversub, 1, m.MaxOversub)
	lat := sizing.BindingCell.Center.Lat
	equiv := m.System.EquivalentSingleShellSatellites(m.System.SizingShell(), lat)
	if equiv < 1 {
		equiv = 1
	}
	total := m.System.TotalSatellites()
	return math.Ceil(float64(sizing.Satellites) * float64(total) / float64(equiv))
}

// TestRegionLatitudeShiftMonotonicity: as the same demand band shifts
// poleward within the constellation's inclination, the satellite
// density over it grows, so the required fleet must never grow — under
// an inclined and a near-polar fleet alike. And the inclined fleet's
// equator-to-mid-latitude premium must be strictly steeper: an
// inclined shell concentrates toward its inclination latitude, a
// near-polar one is closer to uniform. This is the geometry that makes
// equatorial geographies pay more satellites per served cell.
func TestRegionLatitudeShiftMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("generates ten synthetic bands")
	}
	centers := []float64{4, 14, 24, 34, 44}
	oneweb, ok := constellation.SystemByName("oneweb")
	if !ok {
		t.Fatal("oneweb system not declared")
	}
	systems := []struct {
		name string
		sys  constellation.System
	}{
		{"starlink", constellation.StarlinkSystem()},
		{"oneweb", oneweb},
	}
	premiums := make([]float64, len(systems))
	for si, s := range systems {
		m := NewModelFor(s.sys)
		required := make([]float64, len(centers))
		for i, c := range centers {
			required[i] = requiredSatellitesAt(t, m, latitudeBand(t, c))
		}
		testutil.RequireMonotone(t, s.name+" required satellites poleward", required, testutil.NonIncreasing)
		if required[len(required)-1] <= 0 {
			t.Fatalf("%s: degenerate mid-latitude requirement %v", s.name, required[len(required)-1])
		}
		premiums[si] = required[0] / required[len(required)-1]
	}
	if premiums[0] <= premiums[1] {
		t.Errorf("inclined equatorial premium %.3f not above the near-polar premium %.3f",
			premiums[0], premiums[1])
	}
}
