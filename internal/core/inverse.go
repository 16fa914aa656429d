package core

import (
	"leodivide/internal/demand"
)

// The inverse question of Table 2: given a constellation of N
// satellites (e.g. today's ~8,000), what beamspread factor must the
// operator adopt to cover every US cell — and what does that spread do
// to per-cell capacity? This is the paper's F2 read backwards: "to
// stay within acceptable oversubscription Starlink must adopt a
// beamspread factor less than 2", which today's fleet cannot.

// InverseSizing is the break-even analysis for a fixed fleet size.
type InverseSizing struct {
	// Satellites is the fleet size analysed.
	Satellites int
	// RequiredSpread is the minimum beamspread at which the fleet
	// covers all cells (peak cell fully beamed), from the sizing
	// equation solved for s.
	RequiredSpread float64
	// PerCellCapacityGbps is the capacity a single-beam cell receives
	// at that spread.
	PerCellCapacityGbps float64
	// MaxServableLocations is the largest cell servable at the
	// oversubscription cap under that spread with a single beam.
	MaxServableLocations int
	// ServedCellFraction is the fraction of demand cells within that
	// single-beam limit.
	ServedCellFraction float64
}

// InverseSize solves the sizing equation N = G/(1+(B−b)·s) for the
// spread s a fleet of n satellites needs, then reports what that
// spread costs in per-cell capacity.
func (m Model) InverseSize(d *demand.Distribution, satellites int, maxOversub float64) InverseSizing {
	capped := m.Size(d, CappedOversub, 1, maxOversub) // binding cell & beams at any spread
	lat := capped.BindingCell.Center.Lat
	b := capped.PeakBeams
	g := m.EffectiveCells(lat)
	// N = G / (1 + (B−b)·s)  ⇒  s = (G/N − 1) / (B−b).
	denom := float64(m.Beams.BeamsPerSatellite - b)
	spread := (g/float64(satellites) - 1) / denom
	if spread < 1 {
		spread = 1
	}
	perCell := m.Beams.SpreadCellCapacityGbps(spread)
	maxLoc := m.Beams.MaxLocationsUnderSpread(maxOversub, spread)
	return InverseSizing{
		Satellites:           satellites,
		RequiredSpread:       spread,
		PerCellCapacityGbps:  perCell,
		MaxServableLocations: maxLoc,
		ServedCellFraction:   d.FractionOfCellsAtMost(maxLoc),
	}
}
