package core

import "testing"

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
