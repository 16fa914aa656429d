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

// stackClasses is the number of residue classes whose histograms
// binCurves keeps on the stack: the four of AnalyzeStagger's 96 steps.
const stackClasses = 4

// binCurves is the curve kernel: in one pass over the cells it fills
// nat[s] with the total instantaneous demand of every cell at UTC hour
// 24s/len(nat), and fp[s] with that of the footprint, the cells whose
// longitude lies within halfWidth of lng. fp must be as long as nat.
// Time-zone staggering flattens these curves relative to any single
// cell's curve.
//
// The kernel bins instead of evaluating every cell at every step. Step
// s sits at UTC hour 24s/steps, so steps s and s+c, with c =
// steps/gcd(steps, 24), sit a whole number of hours apart: every cell
// has the same interpolation weight at both, and only its profile
// bracket shifts. For each residue class mod c, each cell's demand is
// therefore split over a 24-entry histogram of profile indices
// (d·(1−w) on its lower bracket, d·w on the upper), once for the
// national scope and, for a footprint member, the same two terms again
// for the footprint; each step of the class is then a circular dot
// product of a histogram with the profile. That is O(c·cells +
// steps·24) instead of O(steps·cells); the default 96 quarter-hour
// steps need c = 4 classes.
//
// Each total equals the direct per-cell sum (the tests' directCurve)
// within rounding (the equivalence test pins 1e-12 relative), not bit
// for bit: the summation order differs. Every histogram accumulates its cells
// in ID order and the kernel is serial, so the result is
// deterministic and identical at every parallelism.
func binCurves(p *DiurnalProfile, cells demand.Cells, lng, halfWidth float64, nat, fp []float64) {
	steps := len(nat)
	g := gcd(steps, 24)
	classes, shift := steps/g, 24/g
	var utcStack [stackClasses]float64
	var binStack [2 * stackClasses][24]float64
	utcs, bins := utcStack[:], binStack[:]
	if classes > stackClasses {
		utcs, bins = make([]float64, classes), make([][24]float64, 2*classes)
	}
	utcs, bins = utcs[:classes], bins[:2*classes]
	natBins, fpBins := bins[:classes], bins[classes:]
	for r := range utcs {
		utcs[r] = 24 * float64(r) / float64(steps)
	}
	for i := range cells.Len() {
		d := demand.DemandGbps(cells.Locations(i))
		cellLng := cells.Center(i).Lng
		phase := cellLng / 15
		member := math.Abs(cellLng-lng) <= halfWidth
		for r, utc := range utcs {
			// A reduced hour in [0, 24) splits by truncation, which
			// gives bracket's index and weight; any other x takes
			// bracket.
			x := utc + phase + 48
			var lo int
			var w float64
			if h, ok := dayHour(x); ok {
				lo = int(h)
				w = h - float64(lo)
			} else {
				lo, w = bracket(wrap24(x))
			}
			hi := lo + 1
			if hi == 24 {
				hi = 0
			}
			below, above := d*(1-w), d*w
			natBins[r][lo] += below
			natBins[r][hi] += above
			if member {
				fpBins[r][lo] += below
				fpBins[r][hi] += above
			}
		}
	}
	for r := range utcs {
		for s := r; s < steps; s += classes {
			k := (s / classes) * shift % 24
			nat[s] = p.circularDot(&natBins[r], k)
			fp[s] = p.circularDot(&fpBins[r], k)
		}
	}
}

// circularDot returns Σ_j bins[j]·p[(j+k) mod 24], summed in j order.
func (p *DiurnalProfile) circularDot(bins *[24]float64, k int) float64 {
	total := 0.0
	for j, b := range bins {
		total += b * p[(j+k)%24]
	}
	return total
}

// wrap24 is math.Mod(x, 24), exactly, for any x; see dayHour.
func wrap24(x float64) float64 {
	if h, ok := dayHour(x); ok {
		return h
	}
	return math.Mod(x, 24)
}

// wholeDays[k] is k days in hours.
var wholeDays = [4]float64{0, 24, 48, 72}

// dayHour is math.Mod(x, 24) without its general-purpose cost on the
// kernel's domain: for x in [0, 96), where utc+phase+48 always lies, it
// subtracts the k = ⌊x/24⌋ whole days at once, with k found by
// comparisons the compiler makes branch-free, and reports ok. The
// subtraction is exact (both operands are multiples of x's ulp and the
// difference is no larger than x), and so is math.Mod, so the bits are
// the same. For any other x, NaN and ±Inf included, ok is false. It is
// small enough to inline into the kernel's loop.
func dayHour(x float64) (h float64, ok bool) {
	if !(x >= 0 && x < 96) {
		return 0, false
	}
	k := 0
	if x >= 24 {
		k = 1
	}
	if x >= 48 {
		k = 2
	}
	if x >= 72 {
		k = 3
	}
	return x - wholeDays[k], true
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
// and national ratios come from 96-step curves that the binned
// binCurves kernel builds in one pass over the cells, once the densest
// cell has fixed the footprint: they equal the ratios of the direct
// per-cell sums within rounding, are deterministic (the kernel is
// serial), and hold the golden corpus at its default 1e-9 relative
// tolerance.
func AnalyzeStagger(p DiurnalProfile, cells demand.Cells, footprintHalfWidthDeg float64) (StaggerAnalysis, error) {
	if err := p.Validate(); err != nil {
		return StaggerAnalysis{}, err
	}
	if cells.Len() == 0 {
		return StaggerAnalysis{}, fmt.Errorf("traffic: no cells")
	}
	// Footprint scope: cells within the half-width of the densest cell
	// (the first in ID order on ties).
	densest := 0
	for i := range cells.Len() {
		if cells.Locations(i) > cells.Locations(densest) {
			densest = i
		}
	}
	var nat, fp [96]float64
	binCurves(&p, cells, cells.Center(densest).Lng, footprintHalfWidthDeg, nat[:], fp[:])
	return StaggerAnalysis{
		CellPeakToMean:      p.PeakFactor(),
		FootprintPeakToMean: PeakToMean(fp[:]),
		NationalPeakToMean:  PeakToMean(nat[:]),
	}, nil
}
