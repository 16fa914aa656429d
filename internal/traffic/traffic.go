// Package traffic models the time dimension behind the paper's P2:
// capacity is sized by *peak* demand, and residential broadband demand
// peaks in the local evening. The package provides a diurnal demand
// profile, timezone-aware per-cell demand at any UTC hour, and the
// analysis of whether time-zone staggering relieves a LEO
// constellation (it barely does: a satellite's footprint spans roughly
// one time zone, so the cells it serves peak together).
package traffic

import (
	"fmt"
	"math"

	"leodivide/internal/demand"
)

// DiurnalProfile maps local hour (0-23) to a demand multiplier with
// mean 1 over the day. The default shape follows residential broadband
// measurements: a deep overnight trough, a daytime shoulder, and an
// evening busy hour around 21:00 local.
type DiurnalProfile [24]float64

// DefaultProfile returns the residential evening-peak shape.
func DefaultProfile() DiurnalProfile {
	raw := [24]float64{
		0.35, 0.25, 0.20, 0.18, 0.18, 0.22, // 00-05
		0.35, 0.55, 0.75, 0.85, 0.90, 0.95, // 06-11
		1.00, 1.00, 1.00, 1.05, 1.15, 1.30, // 12-17
		1.55, 1.80, 2.00, 2.10, 1.80, 1.20, // 18-23
	}
	var p DiurnalProfile
	sum := 0.0
	for _, v := range raw {
		sum += v
	}
	for i, v := range raw {
		p[i] = v * 24 / sum
	}
	return p
}

// Validate reports whether the profile is usable: positive everywhere
// and mean ≈ 1.
func (p DiurnalProfile) Validate() error {
	sum := 0.0
	for h, v := range p {
		if v <= 0 {
			return fmt.Errorf("traffic: nonpositive multiplier %v at hour %d", v, h)
		}
		sum += v
	}
	if math.Abs(sum/24-1) > 0.01 {
		return fmt.Errorf("traffic: profile mean %v, want 1", sum/24)
	}
	return nil
}

// PeakFactor returns the profile's busy-hour multiplier.
func (p DiurnalProfile) PeakFactor() float64 {
	peak := p[0]
	for _, v := range p[1:] {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// PeakHour returns the local hour of the busy-hour.
func (p DiurnalProfile) PeakHour() int {
	best, peak := 0, p[0]
	for h, v := range p {
		if v > peak {
			best, peak = h, v
		}
	}
	return best
}

// LocalHour converts a UTC hour to the solar local hour at a longitude
// (15° per hour).
func LocalHour(utcHour float64, lngDeg float64) float64 {
	h := math.Mod(utcHour+lngDeg/15+48, 24)
	return h
}

// At returns the multiplier at a fractional local hour, interpolating
// between hourly samples. Any finite hour wraps onto the day; a
// non-finite hour yields NaN.
func (p DiurnalProfile) At(localHour float64) float64 {
	return p.interp(math.Mod(localHour+24, 24))
}

// CellDemandAt returns a cell's instantaneous demand multiplier at a
// UTC hour, using the cell's longitude for the local clock.
func CellDemandAt(p DiurnalProfile, c demand.Cell, utcHour float64) float64 {
	return p.At(LocalHour(utcHour, c.Center.Lng))
}

// MultiplierAt is the hot-loop form of CellDemandAt over precomputed
// columns: phase is the cell's longitude divided by 15 (see Columns).
// The pointer receiver avoids copying the 24-entry profile per cell,
// and the arithmetic replicates LocalHour followed by At operation for
// operation — including At's second modulo, whose rounding is
// observable — so the result is bit-identical.
func (p *DiurnalProfile) MultiplierAt(utcHour, phase float64) float64 {
	h := math.Mod(utcHour+phase+48, 24)
	return p.interp(math.Mod(h+24, 24))
}

// interp interpolates the profile at an hour already reduced by
// math.Mod(·, 24).
func (p *DiurnalProfile) interp(h float64) float64 {
	lo, frac := bracket(h)
	return p[lo]*(1-frac) + p[(lo+1)%24]*frac
}

// bracket splits an hour already reduced by math.Mod(·, 24) into its
// profile index and interpolation weight. A reduced hour in (-24, 0)
// comes from a negative input and wraps once more; NaN (the reduction
// of a non-finite input) comes back as weight NaN on index 0, which
// poisons any interpolation or sum it enters instead of indexing out
// of range.
func bracket(h float64) (lo int, frac float64) {
	if math.IsNaN(h) {
		return 0, h
	}
	if h < 0 {
		h += 24
	}
	return int(h) % 24, h - math.Floor(h)
}

// Columns are dense per-cell projections of the traffic-relevant Cell
// fields, aligned with the source cell slice: the location count as a
// float, the sold demand in Gbps, and the diurnal phase (longitude/15,
// the cell's local-clock offset in hours). Building them once per
// analysis keeps the per-cell scans cache-friendly and free of repeated
// field strides and divisions. Scans that need bit-exact per-cell
// values (ServedFractionOverDay) walk them in cell order; the curve
// kernel bins them, and its totals match the direct sum only within
// rounding (see NationalCurveColumns).
type Columns struct {
	Loc    []float64
	Demand []float64
	Phase  []float64
}

// NewColumns projects the cells into columns.
func NewColumns(cells []demand.Cell) Columns {
	c := Columns{
		Loc:    make([]float64, len(cells)),
		Demand: make([]float64, len(cells)),
		Phase:  make([]float64, len(cells)),
	}
	for i := range cells {
		c.Loc[i] = float64(cells[i].Locations)
		c.Demand[i] = cells[i].DemandGbps()
		c.Phase[i] = cells[i].Center.Lng / 15
	}
	return c
}

// Len returns the number of projected cells.
func (c Columns) Len() int { return len(c.Loc) }

// NationalCurve sums instantaneous demand over all cells for each UTC
// hour step, returning (utcHour, totalDemandGbps) samples. Time-zone
// staggering flattens this national curve relative to any single
// cell's curve.
func NationalCurve(p DiurnalProfile, cells []demand.Cell, steps int) ([]float64, []float64, error) {
	return NationalCurveColumns(p, NewColumns(cells), steps)
}

// NationalCurveColumns is NationalCurve over pre-projected columns, so
// repeated curves (footprint and national scopes of a stagger analysis)
// share one projection.
//
// The kernel bins instead of evaluating every cell at every step. Step
// s sits at UTC hour 24s/steps, so steps s and s+c, with c =
// steps/gcd(steps, 24), sit a whole number of hours apart: every cell
// has the same interpolation weight at both, and only its profile
// bracket shifts. One pass per residue class mod c therefore splits
// each cell's demand over a 24-entry histogram of profile indices
// (d·(1−w) on its lower bracket, d·w on the upper), and each step of
// the class is a circular dot product of that histogram with the
// profile. That is O(c·cells + steps·24) instead of O(steps·cells);
// the default 96 quarter-hour steps need c = 4 passes.
//
// Each total equals the direct per-cell sum of MultiplierAt within
// rounding (the equivalence test pins 1e-12 relative), not bit for bit:
// the summation order differs. The kernel is serial, so the result is
// deterministic and identical at every parallelism.
func NationalCurveColumns(p DiurnalProfile, cols Columns, steps int) ([]float64, []float64, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if steps < 2 {
		steps = 24
	}
	g := gcd(steps, 24)
	classes, shift := steps/g, 24/g
	hours := make([]float64, steps)
	totals := make([]float64, steps)
	for r := 0; r < classes; r++ {
		utc := 24 * float64(r) / float64(steps)
		var bins [24]float64
		for i, d := range cols.Demand {
			lo, w := bracket(wrap24(utc + cols.Phase[i] + 48))
			bins[lo] += d * (1 - w)
			bins[(lo+1)%24] += d * w
		}
		for s := r; s < steps; s += classes {
			k := (s / classes) * shift % 24
			total := 0.0
			for j, b := range bins {
				total += b * p[(j+k)%24]
			}
			hours[s] = 24 * float64(s) / float64(steps)
			totals[s] = total
		}
	}
	return hours, totals, nil
}

// wrap24 is math.Mod(x, 24) without its general-purpose cost on the
// kernel's domain: for x in [0, 96), where utc+phase+48 always lies, it
// subtracts 24 until x < 24. Each subtraction is exact (both operands
// are multiples of x's ulp and the difference is no larger than x), and
// so is math.Mod, so the bits are the same. Any other x, NaN and ±Inf
// included, goes to math.Mod.
func wrap24(x float64) float64 {
	if x >= 0 && x < 96 {
		for x >= 24 {
			x -= 24
		}
		return x
	}
	return math.Mod(x, 24)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PeakToMean returns the ratio of a curve's maximum to its mean.
func PeakToMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum, peak := 0.0, values[0]
	for _, v := range values {
		sum += v
		if v > peak {
			peak = v
		}
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 0
	}
	return peak / mean
}

// StaggerAnalysis quantifies how much time-zone staggering helps at
// different aggregation scopes.
type StaggerAnalysis struct {
	// CellPeakToMean is a single cell's peak-to-mean ratio (the profile
	// peak factor — no relief).
	CellPeakToMean float64
	// FootprintPeakToMean is the ratio over one satellite footprint
	// (cells within ±footprintHalfWidthDeg of longitude) — marginal
	// relief, because a footprint spans about one time zone.
	FootprintPeakToMean float64
	// NationalPeakToMean is the ratio over all cells — the relief LEO
	// capacity cannot exploit, since satellites cannot move capacity
	// across the country instantaneously.
	NationalPeakToMean float64
}

// AnalyzeStagger computes the three ratios. footprintHalfWidthDeg is
// the longitude half-width of a satellite footprint (≈8.5° for 550 km
// at a 25° mask).
//
// CellPeakToMean is the profile's peak factor, exactly. The footprint
// and national ratios come from 96-step curves built by the binned
// NationalCurveColumns kernel: they equal the ratios of the direct
// per-cell sums within rounding, are deterministic (the kernel is
// serial), and hold the golden corpus at its default 1e-9 relative
// tolerance.
func AnalyzeStagger(p DiurnalProfile, cells []demand.Cell, footprintHalfWidthDeg float64) (StaggerAnalysis, error) {
	if err := p.Validate(); err != nil {
		return StaggerAnalysis{}, err
	}
	if len(cells) == 0 {
		return StaggerAnalysis{}, fmt.Errorf("traffic: no cells")
	}
	out := StaggerAnalysis{CellPeakToMean: p.PeakFactor()}

	// Footprint scope: cells within the half-width of the densest cell.
	densest := cells[0]
	for _, c := range cells[1:] {
		if c.Locations > densest.Locations {
			densest = c
		}
	}
	// Project once; the footprint scope copies its members' entries out
	// of the national columns instead of re-projecting a cell subset.
	cols := NewColumns(cells)
	var fp Columns
	for i, c := range cells {
		if math.Abs(c.Center.Lng-densest.Center.Lng) <= footprintHalfWidthDeg {
			fp.Demand = append(fp.Demand, cols.Demand[i])
			fp.Phase = append(fp.Phase, cols.Phase[i])
		}
	}
	_, fpCurve, err := NationalCurveColumns(p, fp, 96)
	if err != nil {
		return StaggerAnalysis{}, err
	}
	out.FootprintPeakToMean = PeakToMean(fpCurve)

	_, natCurve, err := NationalCurveColumns(p, cols, 96)
	if err != nil {
		return StaggerAnalysis{}, err
	}
	out.NationalPeakToMean = PeakToMean(natCurve)
	return out, nil
}
