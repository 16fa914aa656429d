package leodivide

import (
	"context"
	"math"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/region"
)

// TestCostCurveInvariants checks the structural contract of the
// costcurve experiment: one curve per declared system in canonical
// order, a full fraction sweep per curve, and the monotonicity a
// growing fleet implies — required spread never rises, served fraction
// never falls.
func TestCostCurveInvariants(t *testing.T) {
	ds := smallDataset(t, 1)
	r, err := NewModel().CostCurve(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSystems := []string{"starlink", "starlink-gen2", "kuiper", "oneweb"}
	if len(r.Systems) != len(wantSystems) {
		t.Fatalf("%d curves, want %d", len(r.Systems), len(wantSystems))
	}
	for i, sys := range r.Systems {
		if sys.System != wantSystems[i] {
			t.Errorf("curve %d is %q, want %q", i, sys.System, wantSystems[i])
		}
		if sys.AuthorizedSatellites <= 0 || sys.EquivalentFullFleet <= 0 {
			t.Errorf("%s: degenerate fleet sizes %+v", sys.System, sys)
		}
		if len(sys.Points) != 10 {
			t.Fatalf("%s: %d points, want the 10%%..100%% sweep", sys.System, len(sys.Points))
		}
		for j, p := range sys.Points {
			if p.Satellites < 1 || p.RequiredSpread < 1 {
				t.Errorf("%s point %d: degenerate %+v", sys.System, j, p)
			}
			if p.ServedLocations > 0 && p.MonthlyPerLocationUSD <= 0 {
				t.Errorf("%s point %d: served %d locations at $%v/month",
					sys.System, j, p.ServedLocations, p.MonthlyPerLocationUSD)
			}
			if j == 0 {
				continue
			}
			prev := sys.Points[j-1]
			if p.FleetFraction <= prev.FleetFraction {
				t.Errorf("%s: fractions not ascending at point %d", sys.System, j)
			}
			if p.RequiredSpread > prev.RequiredSpread {
				t.Errorf("%s: required spread rose with fleet size (%v -> %v)",
					sys.System, prev.RequiredSpread, p.RequiredSpread)
			}
			if p.ServedFraction < prev.ServedFraction {
				t.Errorf("%s: served fraction fell with fleet size (%v -> %v)",
					sys.System, prev.ServedFraction, p.ServedFraction)
			}
		}
	}
	// OneWeb's stacking limit is a single beam, so its two per-cell caps
	// coincide and it must report no diminishing-returns tail; Starlink
	// stacks four beams and must have one.
	for _, sys := range r.Systems {
		switch sys.System {
		case "oneweb":
			if sys.Tail.LocationsGained != 0 {
				t.Errorf("oneweb reports a tail %+v but its caps coincide", sys.Tail)
			}
		case "starlink":
			if sys.Tail.LocationsGained <= 0 || sys.Tail.MonthlyPerLocationUSD <= 0 {
				t.Errorf("starlink tail %+v should price a real gain", sys.Tail)
			}
		}
	}
}

// TestCrossConstellationInvariants checks the xconst table: one row per
// system in canonical order, and a Cheapest verdict that actually is
// the minimum monthly cost among serving systems.
func TestCrossConstellationInvariants(t *testing.T) {
	ds := smallDataset(t, 1)
	r, err := NewModel().CrossConstellation(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSystems := []string{"starlink", "starlink-gen2", "kuiper", "oneweb"}
	if len(r.Rows) != len(wantSystems) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(wantSystems))
	}
	best := ""
	for i, row := range r.Rows {
		if row.System != wantSystems[i] {
			t.Errorf("row %d is %q, want %q", i, row.System, wantSystems[i])
		}
		if row.RequiredSatellites < 1 || row.FleetCapexUSD <= 0 {
			t.Errorf("%s: degenerate requirement %+v", row.System, row)
		}
		if row.ServedFraction <= 0 || row.ServedFraction > 1 {
			t.Errorf("%s: served fraction %v outside (0,1]", row.System, row.ServedFraction)
		}
		if row.ServedLocations > 0 &&
			(best == "" || row.MonthlyPerLocationUSD < minMonthly(r.Rows, best)) {
			best = row.System
		}
	}
	if r.Cheapest == "" || r.Cheapest != best {
		t.Errorf("Cheapest = %q, want %q", r.Cheapest, best)
	}
}

func minMonthly(rows []ConstellationRow, system string) float64 {
	for _, r := range rows {
		if r.System == system {
			return r.MonthlyPerLocationUSD
		}
	}
	return 0
}

// curveCostTail is systemCostTail as it read the tail before
// ReturnsEnds: off the two ends of the whole diminishing-returns curve.
func curveCostTail(ctx context.Context, m Model, dist *demand.Distribution,
	sys constellation.System, c core.Model, equivFull, total int) (CostTail, error) {
	points, err := c.DiminishingReturns(ctx, dist, 1, m.MaxOversub)
	if err != nil {
		return CostTail{}, err
	}
	if len(points) < 2 {
		return CostTail{}, nil
	}
	first, last := points[0], points[len(points)-1]
	gained := first.UnservedLocations - last.UnservedLocations
	addlEquiv := last.Satellites - first.Satellites
	if gained <= 0 || addlEquiv <= 0 {
		return CostTail{}, nil
	}
	addlRaw := int(math.Ceil(float64(addlEquiv) * float64(total) / float64(equivFull)))
	return CostTail{
		LocationsGained:       gained,
		AdditionalSatellites:  addlRaw,
		MonthlyPerLocationUSD: sys.Cost.AnnualizedUSD(addlRaw) / 12 / float64(gained),
	}, nil
}

// TestCostTailMatchesCurveEnds: the cost tail read off the staged
// profile equals the one read off the whole curve, bit for bit, for
// every system, region and oversubscription cap.
func TestCostTailMatchesCurveEnds(t *testing.T) {
	ctx := context.Background()
	priced := 0
	for _, name := range region.Names() {
		ds, err := GenerateDataset(ctx, WithRegion(name), WithSeed(5), WithScale(0.25))
		if err != nil {
			t.Fatal(err)
		}
		dist := ds.Distribution()
		for _, oversub := range []float64{10, 20, 30} {
			m := NewModel()
			m.MaxOversub = oversub
			for _, declared := range constellation.Systems() {
				sys, c := m.systemModel(declared)
				capped := c.Size(dist, core.CappedOversub, 1, oversub)
				equivFull := max(1, sys.EquivalentSingleShellSatellites(sys.SizingShell(), capped.BindingCell.Center.Lat))
				total := sys.TotalSatellites()
				got, err := m.systemCostTail(ctx, dist, sys, c, equivFull, total)
				if err != nil {
					t.Fatal(err)
				}
				want, err := curveCostTail(ctx, m, dist, sys, c, equivFull, total)
				if err != nil {
					t.Fatal(err)
				}
				if got.LocationsGained != want.LocationsGained || got.AdditionalSatellites != want.AdditionalSatellites ||
					math.Float64bits(got.MonthlyPerLocationUSD) != math.Float64bits(want.MonthlyPerLocationUSD) {
					t.Errorf("%s %s oversub %v: tail %+v, from the curve %+v", name, sys.Key, oversub, got, want)
				}
				if got.LocationsGained > 0 {
					priced++
				}
			}
		}
	}
	if priced == 0 {
		t.Error("no system priced a tail: the comparison is vacuous")
	}
}
