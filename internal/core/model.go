// Package core implements the paper's analytical capacity model: the
// single-satellite capacity budget (Table 1), the peak-demand-driven
// constellation sizing rule (P2, Table 2), the beamspread ×
// oversubscription service-fraction surface (Figure 2), and the
// diminishing-returns sweep over the demand long tail (Figure 3).
//
// The model's chain of reasoning:
//
//  1. Spectrum fixes a maximum per-cell capacity (≈17.3 Gbps via 4
//     beams); the FCC benchmark fixes per-location demand (100 Mbps).
//  2. The densest cell therefore fixes the minimum oversubscription for
//     full service, and — via the number of beams the satellite above
//     it must dedicate — how many cells that satellite can still cover.
//  3. Continuous coverage converts the required satellite density at the
//     peak cell's latitude into a total constellation size using the
//     Walker-shell latitude density profile.
package core

import (
	"context"
	"fmt"
	"math"

	"leodivide/internal/beams"
	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
	"leodivide/internal/spectrum"
)

// Model carries the fixed parameters of a capacity analysis. Obtain one
// from NewModel or NewModelFor; the only setters after that are
// Calibrated and Parallelism.
type Model struct {
	// Beams is the satellite beam/spectrum configuration.
	Beams beams.Config
	// InclinationDeg is the shell inclination used for the latitude
	// density profile.
	InclinationDeg float64
	// CalibratedEffectiveCells, when positive, pins the effective
	// global cell count at calibrationLatDeg to the paper's fitted
	// value (≈1.665e6) instead of deriving it from cellAreaKm2 and the
	// shell geometry. Other latitudes scale by the density profile.
	CalibratedEffectiveCells float64
	// UTDownlinkMHz and SpectralEfficiencyBpsPerHz describe the
	// spectrum behind Beams, reported by Capacity (Table 1).
	UTDownlinkMHz              float64
	SpectralEfficiencyBpsPerHz float64
	// Parallelism bounds the worker count for the sweep methods
	// (SizeTable, ServedFractionGrid, AssessFleet). 0 means one worker
	// per CPU; 1 is the exact serial path. Every sweep point is an
	// independent pure function of the model and dataset and lands in
	// an index-ordered slot, so results are identical at every setting.
	//
	// Through the facade, set this via leodivide's Model.Parallelism
	// (or RunConfig), which keeps it in lockstep with the facade's own
	// worker bound; writing the field directly risks running the two
	// layers at different counts and is unsupported there.
	Parallelism int
}

// cellAreaKm2 is the service-cell area: the mean resolution-5 cell,
// hexgrid.Resolution(5).AvgCellAreaKm2(), written out because Go's
// exact constant arithmetic would round the quotient one ulp away from
// the float64 division the grid performs.
const cellAreaKm2 = 253.00736353398284

// calibrationLatDeg is the reference latitude of the paper's fitted
// effective cell count (Calibrated).
const calibrationLatDeg = 34.8

// PaperEffectiveCells is the effective global cell count implied by the
// paper's Table 2 (N·(1+20s) is constant at ≈1,665,027 across all five
// beamspread rows of the full-service column).
const PaperEffectiveCells = 1665027

// NewModel returns the model with the paper's parameters: Starlink beam
// budget, 53° shell, resolution-5 cell area, geometric effective cells.
// It is NewModelFor applied to the Starlink spec.
func NewModel() Model {
	return NewModelFor(constellation.StarlinkSystem())
}

// NewModelFor returns the capacity model a constellation spec implies:
// the system's beam configuration, its sizing-shell inclination for the
// latitude density profile, and its spectrum figures for Table 1
// reporting. Cell area and calibration latitude are properties of the
// demand grid and the paper's fit, not of the system: they are the
// package constants cellAreaKm2 and calibrationLatDeg.
func NewModelFor(sys constellation.System) Model {
	return Model{
		Beams:                      beams.ForSystem(sys),
		InclinationDeg:             sys.SizingInclinationDeg,
		UTDownlinkMHz:              spectrum.UTDownlinkMHzOf(sys.Bands),
		SpectralEfficiencyBpsPerHz: sys.SpectralEfficiencyBpsPerHz,
	}
}

// Calibrated returns a copy of the model with the effective cell count
// pinned to the paper's fitted value.
func (m Model) Calibrated() Model {
	m.CalibratedEffectiveCells = PaperEffectiveCells
	return m
}

// EffectiveCells returns the effective number of cells the constellation
// must cover, given that the binding constraint sits at latDeg: the
// Earth's cell count divided by the shell's density enhancement there.
func (m Model) EffectiveCells(latDeg float64) float64 {
	f := orbit.DensityFactor(m.InclinationDeg, latDeg)
	if m.CalibratedEffectiveCells > 0 {
		fRef := orbit.DensityFactor(m.InclinationDeg, calibrationLatDeg)
		return m.CalibratedEffectiveCells * fRef / f
	}
	return geo.EarthAreaKm2 / (cellAreaKm2 * f)
}

// ConstellationSize returns the satellites required when the binding
// cell at latDeg needs peakBeams dedicated beams and all other beams
// spread over spreadFactor cells.
func (m Model) ConstellationSize(spreadFactor float64, peakBeams int, latDeg float64) int {
	cellsPerSat := m.Beams.CellsPerSatellite(spreadFactor, peakBeams)
	return int(math.Ceil(m.EffectiveCells(latDeg) / cellsPerSat))
}

// CapacityTable reproduces the paper's Table 1: the single-satellite
// capacity model applied to the peak-demand cell.
type CapacityTable struct {
	UTDownlinkMHz              float64
	SpectralEfficiencyBpsPerHz float64
	MaxCellCapacityGbps        float64
	PeakCellLocations          int
	FCCDownMbps, FCCUpMbps     float64
	PeakCellDemandGbps         float64
	MaxOversubscription        float64
}

// Capacity evaluates the Table 1 quantities against the dataset's peak
// cell.
func (m Model) Capacity(d *demand.Distribution) CapacityTable {
	peak := d.Peak()
	demandGbps := m.Beams.CellDemandGbps(peak.Locations)
	return CapacityTable{
		UTDownlinkMHz:              m.UTDownlinkMHz,
		SpectralEfficiencyBpsPerHz: m.SpectralEfficiencyBpsPerHz,
		MaxCellCapacityGbps:        m.Beams.MaxCellCapacityGbps(),
		PeakCellLocations:          peak.Locations,
		FCCDownMbps:                spectrum.FCCDownlinkMbps,
		FCCUpMbps:                  spectrum.FCCUplinkMbps,
		PeakCellDemandGbps:         demandGbps,
		MaxOversubscription:        m.Beams.RequiredOversubscription(peak.Locations),
	}
}

// OversubAnalysis reproduces Finding 1: what oversubscription full
// service requires, and what a regulator-acceptable cap leaves behind.
type OversubAnalysis struct {
	// MaxOversub is the cap analysed (20:1 in the paper).
	MaxOversub float64
	// RequiredOversub is the oversubscription full service of the peak
	// cell demands (~35:1).
	RequiredOversub float64
	// CapLocations is the largest servable cell at the cap (3,460).
	CapLocations int
	// CellsAboveCap counts cells denser than the cap (5).
	CellsAboveCap int
	// LocationsInCellsAboveCap counts locations living in those cells
	// (22,428): all of them see >cap oversubscription if fully served.
	LocationsInCellsAboveCap int
	// ExcessLocations counts locations beyond the per-cell cap (5,128):
	// the locations that cannot be served at all within the cap.
	ExcessLocations int
	// ServedFractionAtCap is the fraction of all locations servable at
	// the cap (99.89%).
	ServedFractionAtCap float64
	// TotalLocations is the dataset total.
	TotalLocations int
}

// Oversubscription analyses the dataset against an oversubscription cap.
func (m Model) Oversubscription(d *demand.Distribution, maxOversub float64) OversubAnalysis {
	capLoc := m.Beams.MaxServableLocations(maxOversub)
	return OversubAnalysis{
		MaxOversub:               maxOversub,
		RequiredOversub:          m.Beams.RequiredOversubscription(d.Peak().Locations),
		CapLocations:             capLoc,
		CellsAboveCap:            d.CellsAbove(capLoc),
		LocationsInCellsAboveCap: d.LocationsInCellsAbove(capLoc),
		ExcessLocations:          d.ExcessAbove(capLoc),
		ServedFractionAtCap:      d.ServedFractionWithCap(capLoc),
		TotalLocations:           d.TotalLocations(),
	}
}

// Scenario selects a deployment strategy for sizing.
type Scenario int

const (
	// FullService serves every location, letting the peak cell's
	// oversubscription float as high as needed (~35:1).
	FullService Scenario = iota
	// CappedOversub serves at most the oversubscription cap per cell,
	// leaving the excess locations in the densest cells unserved.
	CappedOversub
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case FullService:
		return "full service"
	case CappedOversub:
		return "capped oversubscription"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// SizingResult is the constellation size required for one scenario and
// beamspread.
type SizingResult struct {
	Scenario    Scenario
	Spread      float64
	Oversub     float64 // the oversubscription in force
	PeakBeams   int     // beams dedicated to the binding cell
	BindingCell demand.Cell
	Satellites  int
	// UnservedLocations counts locations left out (0 for FullService).
	UnservedLocations int
}

// Size computes the constellation required for a scenario at a
// beamspread factor. maxOversub only applies to CappedOversub.
func (m Model) Size(d *demand.Distribution, sc Scenario, spread, maxOversub float64) SizingResult {
	var oversub float64
	var unserved int
	switch sc {
	case FullService:
		oversub = m.Beams.RequiredOversubscription(d.Peak().Locations)
	case CappedOversub:
		oversub = maxOversub
		unserved = d.ExcessAbove(m.Beams.MaxServableLocations(maxOversub))
	}
	capLoc := m.Beams.MaxServableLocations(oversub)
	res := m.sizeWithCap(d, spread, oversub, capLoc)
	res.Scenario = sc
	res.UnservedLocations = unserved
	return res
}

// sizeWithCap sizes the constellation when every cell is served up to
// capLoc locations at the given oversubscription. The binding scan is
// spread-invariant, so it is memoized in the dataset's stage memo and
// only the final ConstellationSize evaluation runs per call (see
// stage.go).
func (m Model) sizeWithCap(d *demand.Distribution, spread, oversub float64, capLoc int) SizingResult {
	scan := m.peakScan(d, oversub, capLoc)
	binding := d.Cell(scan.bindIdx)
	return SizingResult{
		Spread:      spread,
		Oversub:     oversub,
		PeakBeams:   scan.maxBeams,
		BindingCell: binding,
		Satellites:  m.ConstellationSize(spread, scan.maxBeams, binding.Center.Lat),
	}
}

// SizeRow pairs the two scenarios of the paper's Table 2 at one
// beamspread factor.
type SizeRow struct {
	Spread               float64
	FullServiceSats      int
	CappedOversubSats    int
	FullServiceBinding   demand.Cell
	CappedOversubBinding demand.Cell
}

// SizeTable reproduces Table 2: constellation sizes for both scenarios
// across beamspread factors. Rows are computed concurrently under the
// model's Parallelism and returned in spread order.
func (m Model) SizeTable(ctx context.Context, d *demand.Distribution, spreads []float64, maxOversub float64) ([]SizeRow, error) {
	return par.Map(ctx, m.Parallelism, len(spreads), func(i int) (SizeRow, error) {
		s := spreads[i]
		full := m.Size(d, FullService, s, 0)
		capped := m.Size(d, CappedOversub, s, maxOversub)
		return SizeRow{
			Spread:               s,
			FullServiceSats:      full.Satellites,
			CappedOversubSats:    capped.Satellites,
			FullServiceBinding:   full.BindingCell,
			CappedOversubBinding: capped.BindingCell,
		}, nil
	})
}

// ServedFractionGrid reproduces Figure 2: for each (beamspread,
// oversubscription) pair, the fraction of US demand cells servable when
// each cell gets a single s-way-spread beam (the paper's
// current-constellation reading). Rows (one per beamspread) are
// computed concurrently under the model's Parallelism and returned in
// axis order.
func (m Model) ServedFractionGrid(ctx context.Context, d *demand.Distribution, spreads, oversubs []float64) ([][]float64, error) {
	return par.Map(ctx, m.Parallelism, len(spreads), func(i int) ([]float64, error) {
		s := spreads[i]
		row := make([]float64, len(oversubs))
		for j, o := range oversubs {
			row[j] = d.FractionOfCellsAtMost(m.Beams.MaxLocationsUnderSpread(o, s))
		}
		return row, nil
	})
}

// ReturnsPoint is one point of the Figure-3 diminishing-returns curve.
type ReturnsPoint struct {
	// CapLocations is the per-cell service cap producing the point.
	CapLocations int
	// UnservedLocations is the x-axis: locations left unserved.
	UnservedLocations int
	// Satellites is the constellation size required.
	Satellites int
	// PeakBeams is the binding cell's beam requirement.
	PeakBeams int
}

// DiminishingReturns reproduces Figure 3 for one beamspread factor at a
// fixed oversubscription: sweeping the per-cell service cap from the
// single-beam limit up to the oversubscription limit, it returns the
// (unserved locations, constellation size) trade-off in the direction
// of serving more locations. The curve is stepped: satellites jump only
// when the cap crosses a per-beam boundary and pins another beam on the
// binding cell.
//
// The per-cap (unserved, beams) profile is spread-invariant and
// memoized in the dataset's stage memo; each call then maps it through
// the per-band satellite table for its spread and run-compresses it —
// so a multi-spread Figure 3 pays for one profile walk total, not one
// per spread.
func (m Model) DiminishingReturns(ctx context.Context, d *demand.Distribution, spread, oversub float64) ([]ReturnsPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hardCap := m.Beams.MaxServableLocations(oversub)
	perBeam := m.Beams.LocationsPerBeam(oversub)
	if perBeam > hardCap {
		return nil, nil
	}
	prof, bandSats := m.bandedProfile(d, spread, oversub, hardCap)

	// Count the compressed curve's points first, so it is allocated at
	// its exact size: caps often repeat their predecessor's point.
	points := 0
	lastUnserved, lastSats := -1, -1
	for _, p := range prof {
		if sats := bandSats[p.beams]; p.unserved != lastUnserved || sats != lastSats {
			points++
			lastUnserved, lastSats = p.unserved, sats
		}
	}
	out := make([]ReturnsPoint, 0, points)
	lastUnserved, lastSats = -1, -1
	for i, p := range prof {
		sats := bandSats[p.beams]
		if p.unserved == lastUnserved && sats == lastSats {
			continue
		}
		out = append(out, ReturnsPoint{
			CapLocations:      perBeam + i,
			UnservedLocations: p.unserved,
			Satellites:        sats,
			PeakBeams:         p.beams,
		})
		lastUnserved, lastSats = p.unserved, sats
	}
	return out, nil
}

// ReturnsEnds returns the first and last points of DiminishingReturns
// for the same arguments, and ok false when that curve is empty. It
// reads them off the staged profile without building the curve: the
// first point is the first cap's, and the last is where the final run
// of equal (unserved, satellites) pairs begins.
func (m Model) ReturnsEnds(ctx context.Context, d *demand.Distribution, spread, oversub float64) (first, last ReturnsPoint, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return ReturnsPoint{}, ReturnsPoint{}, false, err
	}
	hardCap := m.Beams.MaxServableLocations(oversub)
	perBeam := m.Beams.LocationsPerBeam(oversub)
	if perBeam > hardCap {
		return ReturnsPoint{}, ReturnsPoint{}, false, nil
	}
	prof, bandSats := m.bandedProfile(d, spread, oversub, hardCap)
	at := func(i int) ReturnsPoint {
		p := prof[i]
		return ReturnsPoint{CapLocations: perBeam + i, UnservedLocations: p.unserved, Satellites: bandSats[p.beams], PeakBeams: p.beams}
	}
	j := len(prof) - 1
	end := prof[j]
	for j > 0 && prof[j-1].unserved == end.unserved && bandSats[prof[j-1].beams] == bandSats[end.beams] {
		j--
	}
	return at(0), at(j), true, nil
}

// bandedProfile returns the staged returns profile for oversub and the
// satellites each beam count needs at spread (indexed by beams). The
// paper's narrative sizes every point of the sweep against the same
// peak cell, with only its beam requirement changing as the cap falls
// through per-beam boundaries, so the binding latitude is fixed from
// the full-cap sizing.
func (m Model) bandedProfile(d *demand.Distribution, spread, oversub float64, hardCap int) ([]profilePoint, []int) {
	maxBand := m.Beams.MaxBeamsPerCell
	bandSats := make([]int, maxBand+1)
	bindLat := d.Lats()[m.peakScan(d, oversub, hardCap).bindIdx]
	for b := 1; b <= maxBand; b++ {
		bandSats[b] = m.ConstellationSize(spread, b, bindLat)
	}
	return m.returnsProfile(d, oversub), bandSats
}

// StepCost summarizes one step of the diminishing-returns curve: how
// many additional satellites the next tranche of locations costs.
type StepCost struct {
	FromUnserved, ToUnserved int
	LocationsGained          int
	AdditionalSatellites     int
}

// StepCosts extracts the satellite cost of each step of a
// diminishing-returns curve (the paper's Figure 3 annotations).
func StepCosts(points []ReturnsPoint) []StepCost {
	var out []StepCost
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.Satellites == prev.Satellites {
			continue
		}
		out = append(out, StepCost{
			FromUnserved:         prev.UnservedLocations,
			ToUnserved:           cur.UnservedLocations,
			LocationsGained:      prev.UnservedLocations - cur.UnservedLocations,
			AdditionalSatellites: cur.Satellites - prev.Satellites,
		})
	}
	return out
}
