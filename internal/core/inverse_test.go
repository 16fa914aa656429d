package core

import (
	"context"

	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/traffic"
)

func TestInverseSize(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	inv := m.InverseSize(d, 8000, 20)
	if inv.Satellites != 8000 {
		t.Errorf("satellites = %d", inv.Satellites)
	}
	// ~8,000 satellites force a beamspread near the Table 2 break-even
	// (between 10 and 13 in geometric mode).
	if inv.RequiredSpread < 8 || inv.RequiredSpread > 14 {
		t.Errorf("required spread = %v, want ≈11", inv.RequiredSpread)
	}
	// At that spread, single-beam capacity collapses below 0.5 Gbps.
	if inv.PerCellCapacityGbps > 0.6 {
		t.Errorf("per-cell capacity = %v Gbps, want well below a dedicated beam", inv.PerCellCapacityGbps)
	}
	if inv.ServedCellFraction <= 0 || inv.ServedCellFraction >= 1 {
		t.Errorf("served fraction = %v", inv.ServedCellFraction)
	}
	// Consistency: plugging the required spread back into Size gives
	// roughly the fleet size.
	res := m.Size(d, CappedOversub, inv.RequiredSpread, 20)
	if rel := float64(res.Satellites-8000) / 8000; rel > 0.02 || rel < -0.02 {
		t.Errorf("round trip fleet = %d, want ≈8000", res.Satellites)
	}
}

func TestInverseSizeMonotone(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	// More satellites ⇒ less spreading needed ⇒ more capacity per cell.
	small := m.InverseSize(d, 4000, 20)
	big := m.InverseSize(d, 40000, 20)
	if big.RequiredSpread >= small.RequiredSpread {
		t.Errorf("spread not shrinking with fleet size: %v vs %v",
			big.RequiredSpread, small.RequiredSpread)
	}
	if big.PerCellCapacityGbps <= small.PerCellCapacityGbps {
		t.Error("capacity not growing with fleet size")
	}
	if big.ServedCellFraction < small.ServedCellFraction {
		t.Error("served fraction not growing with fleet size")
	}
	// A huge fleet needs no spreading at all.
	huge := m.InverseSize(d, 10_000_000, 20)
	if huge.RequiredSpread != 1 {
		t.Errorf("huge fleet spread = %v, want clamp to 1", huge.RequiredSpread)
	}
}

func TestExperienceUnderSpread(t *testing.T) {
	m := NewModel()
	d := paperDist(t)
	exp, err := m.ExperienceUnderSpread(d, 10, 25, 100)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Spread != 10 {
		t.Errorf("spread = %v", exp.Spread)
	}
	// Quantiles are ordered.
	if !(exp.P10Mbps <= exp.MedianMbps && exp.MedianMbps <= exp.P90Mbps) {
		t.Errorf("quantiles disordered: %v %v %v", exp.P10Mbps, exp.MedianMbps, exp.P90Mbps)
	}
	// More locations clear 25 Mbps than 100 Mbps.
	if exp.FractionAtLeast[25] < exp.FractionAtLeast[100] {
		t.Error("benchmark fractions disordered")
	}
	// Less spreading gives everyone more throughput.
	tight, err := m.ExperienceUnderSpread(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tight.MedianMbps <= exp.MedianMbps {
		t.Errorf("spread 2 median %v not above spread 10 median %v",
			tight.MedianMbps, exp.MedianMbps)
	}
	// Location weighting pulls the median below the cell-count median:
	// the median cell in paperDist has ~1,000 locations but the median
	// *location* lives in a denser cell.
	cellMedianRate := m.Beams.SpreadCellCapacityGbps(10) * 1000 / float64(d.Quantile(0.5))
	if exp.MedianMbps > cellMedianRate+1e-9 {
		t.Errorf("location-weighted median %v should not exceed cell-median rate %v",
			exp.MedianMbps, cellMedianRate)
	}
}

func TestServedFractionOverDay(t *testing.T) {
	m := NewModel()
	profile := traffic.DefaultProfile()
	// CONUS-spanning cells sized near the single-beam limit so the
	// diurnal swing moves them across it.
	limit := m.Beams.MaxLocationsUnderSpread(20, 10) // 86 at spread 10
	var cells []demand.Cell
	id := 1
	for lng := -120.0; lng <= -75; lng += 3 {
		for k := 0; k < 4; k++ {
			cells = append(cells, demand.Cell{
				ID:        hexgrid.CellID(id),
				Locations: limit/2 + k*limit/3,
				Center:    geo.LatLng{Lat: 38, Lng: lng},
			})
			id++
		}
	}
	points, err := m.ServedFractionOverDay(context.Background(), profile, cells, 10, 20, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 48 {
		t.Fatalf("got %d points", len(points))
	}
	sum := SummarizeDaily(points)
	if sum.WorstFraction >= sum.BestFraction {
		t.Errorf("no diurnal variation: %+v", sum)
	}
	// The worst hour lands when the evening peak covers the cells:
	// 21:00 local at -75..-120 is 02:00-05:00 UTC.
	if !(sum.WorstUTCHour >= 0 && sum.WorstUTCHour <= 9) {
		t.Errorf("worst UTC hour = %v, want late-night UTC (US evening)", sum.WorstUTCHour)
	}
	for _, pt := range points {
		if pt.ServedCellFraction < 0 || pt.ServedCellFraction > 1 {
			t.Fatalf("fraction out of range at %v", pt.UTCHour)
		}
	}
	// Errors.
	if _, err := m.ServedFractionOverDay(context.Background(), profile, nil, 10, 20, 24); err == nil {
		t.Error("no cells should fail")
	}
	var zero traffic.DiurnalProfile
	if _, err := m.ServedFractionOverDay(context.Background(), zero, cells, 10, 20, 24); err == nil {
		t.Error("invalid profile should fail")
	}
}
