// Package beams models satellite spot beams: how much capacity a beam
// delivers to a cell, how beam spreading dilutes it, and how many beams
// a cell of a given demand requires at a given oversubscription ratio.
//
// The beam model is the hinge between raw demand (locations wanting
// 100/20 Mbps) and constellation geometry (how many cells one satellite
// can cover), so its arithmetic is kept explicit and unit-annotated.
package beams

import (
	"fmt"
	"math"

	"leodivide/internal/constellation"
	"leodivide/internal/spectrum"
)

// Config fixes the physical beam parameters for a model run. The zero
// value is not usable; obtain one from DefaultConfig and adjust.
type Config struct {
	// BeamCapacityGbps is the downlink capacity of one spot beam when
	// dedicated to a single cell.
	BeamCapacityGbps float64
	// BeamsPerSatellite is the number of beams a satellite can point at
	// user-terminal cells.
	BeamsPerSatellite int
	// MaxBeamsPerCell caps how many beams may stack on one cell
	// (spectrum/polarization limit).
	MaxBeamsPerCell int
	// DemandPerLocationGbps is the downlink a served location is sold.
	DemandPerLocationGbps float64
}

// DefaultConfig returns the paper's beam parameters: 24 UT beams of
// ~4.325 Gbps, at most 4 stacked per cell, 100 Mbps per location.
// It is the Starlink spec viewed through ForSystem.
func DefaultConfig() Config {
	return ForSystem(constellation.StarlinkSystem())
}

// ForSystem derives the beam configuration a constellation.System
// implies: the system's per-cell capacity split across its beam
// stacking limit, the user-terminal beam count its band table
// supplies, and the FCC 100 Mbps benchmark demand. For the Starlink
// spec this reproduces the historical constant-derived DefaultConfig
// bit-identically (the per-cell capacity divides by a power of two, so
// the runtime split equals the folded constant).
func ForSystem(sys constellation.System) Config {
	return Config{
		BeamCapacityGbps:      sys.CellCapacityGbps / float64(sys.MaxBeamsPerCell),
		BeamsPerSatellite:     spectrum.UTBeamsOf(sys.Bands),
		MaxBeamsPerCell:       sys.MaxBeamsPerCell,
		DemandPerLocationGbps: spectrum.FCCDownlinkMbps / 1000.0,
	}
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	if c.BeamCapacityGbps <= 0 {
		return fmt.Errorf("beams: beam capacity must be positive, got %v", c.BeamCapacityGbps)
	}
	if c.BeamsPerSatellite <= 0 {
		return fmt.Errorf("beams: beams per satellite must be positive, got %d", c.BeamsPerSatellite)
	}
	if c.MaxBeamsPerCell <= 0 || c.MaxBeamsPerCell > c.BeamsPerSatellite {
		return fmt.Errorf("beams: max beams per cell %d out of range (1..%d)",
			c.MaxBeamsPerCell, c.BeamsPerSatellite)
	}
	if c.DemandPerLocationGbps <= 0 {
		return fmt.Errorf("beams: per-location demand must be positive, got %v", c.DemandPerLocationGbps)
	}
	return nil
}

// MaxCellCapacityGbps is the most capacity one cell can receive
// (MaxBeamsPerCell dedicated beams).
func (c Config) MaxCellCapacityGbps() float64 {
	return c.BeamCapacityGbps * float64(c.MaxBeamsPerCell)
}

// CellDemandGbps returns the sold downlink demand of a cell with the
// given number of locations.
func (c Config) CellDemandGbps(locations int) float64 {
	return float64(locations) * c.DemandPerLocationGbps
}

// RequiredOversubscription returns the minimum oversubscription ratio at
// which the cell's demand fits in the maximum per-cell capacity.
// A cell with zero locations requires no oversubscription (returns 1).
func (c Config) RequiredOversubscription(locations int) float64 {
	if locations <= 0 {
		return 1
	}
	ratio := c.CellDemandGbps(locations) / c.MaxCellCapacityGbps()
	if ratio < 1 {
		return 1
	}
	return ratio
}

// BeamsForCell returns the number of dedicated beams needed to serve a
// cell of the given size at oversubscription ratio oversub, and whether
// the cell is servable within the per-cell beam cap. Cells with zero
// locations still need one beam for coverage.
func (c Config) BeamsForCell(locations int, oversub float64) (beams int, servable bool) {
	if oversub < 1 {
		oversub = 1
	}
	if locations <= 0 {
		return 1, true
	}
	need := c.CellDemandGbps(locations) / oversub
	b := int(math.Ceil(need/c.BeamCapacityGbps - 1e-9))
	if b < 1 {
		b = 1
	}
	if b > c.MaxBeamsPerCell {
		return c.MaxBeamsPerCell, false
	}
	return b, true
}

// LocationsPerBeam returns the largest number of locations one dedicated
// beam can serve at oversubscription ratio oversub (865 at 20:1 under
// the default config).
func (c Config) LocationsPerBeam(oversub float64) int {
	if oversub < 1 {
		oversub = 1
	}
	return int(math.Floor(c.BeamCapacityGbps*oversub/c.DemandPerLocationGbps + 1e-9))
}

// MaxServableLocations returns the largest cell servable within the
// per-cell beam cap at oversubscription oversub (3,460 at 20:1 under
// the default config). It is computed from the full per-cell capacity
// so it agrees exactly with BeamsForCell's servability boundary.
func (c Config) MaxServableLocations(oversub float64) int {
	if oversub < 1 {
		oversub = 1
	}
	return int(math.Floor(c.MaxCellCapacityGbps()*oversub/c.DemandPerLocationGbps + 1e-9))
}

// SpreadCellCapacityGbps returns the per-cell capacity when one beam is
// spread across spreadFactor cells. Spread factor 1 means a dedicated
// beam.
func (c Config) SpreadCellCapacityGbps(spreadFactor float64) float64 {
	if spreadFactor < 1 {
		spreadFactor = 1
	}
	return c.BeamCapacityGbps / spreadFactor
}

// MaxLocationsUnderSpread returns the largest cell a single spread beam
// can serve at oversubscription oversub when the beam covers
// spreadFactor cells: 43.25·oversub/spread locations under the default
// config.
func (c Config) MaxLocationsUnderSpread(oversub, spreadFactor float64) int {
	if oversub < 1 {
		oversub = 1
	}
	perCell := c.SpreadCellCapacityGbps(spreadFactor)
	return int(math.Floor(perCell*oversub/c.DemandPerLocationGbps + 1e-9))
}

// CellsPerSatellite returns how many cells one satellite covers when it
// dedicates peakBeams beams to the peak-demand cell and spreads each of
// its remaining beams over spreadFactor cells: 1 + (B−peakBeams)·s.
func (c Config) CellsPerSatellite(spreadFactor float64, peakBeams int) float64 {
	if peakBeams < 1 {
		peakBeams = 1
	}
	if peakBeams > c.BeamsPerSatellite {
		peakBeams = c.BeamsPerSatellite
	}
	if spreadFactor < 1 {
		spreadFactor = 1
	}
	return 1 + float64(c.BeamsPerSatellite-peakBeams)*spreadFactor
}
