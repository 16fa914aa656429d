package orbit

import (
	"fmt"
	"math"

	"leodivide/internal/geo"
)

// Pass is one satellite pass over a ground point: the interval during
// which the satellite stays above the elevation mask.
type Pass struct {
	// StartSec and EndSec bound the pass, in seconds after epoch.
	StartSec, EndSec float64
	// MaxElevationDeg is the culmination elevation.
	MaxElevationDeg float64
	// MaxElevationSec is when culmination occurs.
	MaxElevationSec float64
}

// Duration returns the pass length in seconds.
func (p Pass) Duration() float64 { return p.EndSec - p.StartSec }

// Passes predicts the satellite's passes over the ground point during
// [0, horizonSec], sampling every stepSec and refining the endpoints by
// bisection to sub-second accuracy.
func (o CircularOrbit) Passes(ground geo.LatLng, minElevationDeg, horizonSec, stepSec float64) ([]Pass, error) {
	if horizonSec <= 0 || stepSec <= 0 {
		return nil, fmt.Errorf("orbit: horizon %v and step %v must be positive", horizonSec, stepSec)
	}
	if minElevationDeg < 0 || minElevationDeg >= 90 {
		return nil, fmt.Errorf("orbit: elevation mask %v out of range", minElevationDeg)
	}
	elevation := func(t float64) float64 {
		return ElevationDeg(ECIToECEF(o.PositionECI(t), t), ground)
	}
	above := func(t float64) bool { return elevation(t) >= minElevationDeg }

	var passes []Pass
	inPass := above(0)
	start := 0.0
	for t := stepSec; t <= horizonSec; t += stepSec {
		now := above(t)
		switch {
		case now && !inPass:
			start = bisect(above, t-stepSec, t, false)
			inPass = true
		case !now && inPass:
			end := bisect(above, t-stepSec, t, true)
			passes = append(passes, refinePass(elevation, start, end))
			inPass = false
		}
	}
	if inPass {
		passes = append(passes, refinePass(elevation, start, horizonSec))
	}
	return passes, nil
}

// bisect finds the transition point of a boolean function in (lo, hi):
// fromTrue selects the true→false transition, otherwise false→true.
func bisect(above func(float64) bool, lo, hi float64, fromTrue bool) float64 {
	for i := 0; i < 30 && hi-lo > 0.01; i++ {
		mid := (lo + hi) / 2
		if above(mid) == fromTrue {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// refinePass locates the culmination by golden-section search.
func refinePass(elevation func(float64) float64, start, end float64) Pass {
	const phi = 0.6180339887498949
	lo, hi := start, end
	for i := 0; i < 60 && hi-lo > 0.01; i++ {
		a := hi - (hi-lo)*phi
		b := lo + (hi-lo)*phi
		if elevation(a) < elevation(b) {
			lo = a
		} else {
			hi = b
		}
	}
	peak := (lo + hi) / 2
	return Pass{
		StartSec:        start,
		EndSec:          end,
		MaxElevationDeg: elevation(peak),
		MaxElevationSec: peak,
	}
}

// CoverageStats summarizes a constellation's service as seen from one
// ground point over a time horizon.
type CoverageStats struct {
	// VisibleMin, VisibleMean, VisibleMax count satellites above the
	// mask across the sampled epochs.
	VisibleMin, VisibleMax int
	VisibleMean            float64
	// OutageFraction is the fraction of epochs with no satellite in
	// view.
	OutageFraction float64
	// MeanBestElevationDeg is the mean elevation of the best-placed
	// visible satellite (NaN-free: epochs without coverage are
	// skipped).
	MeanBestElevationDeg float64
}

// GroundCoverage evaluates a shell's visibility statistics from a
// ground point, sampling epochs over one orbital period.
func (w Walker) GroundCoverage(ground geo.LatLng, minElevationDeg float64, epochs int) (CoverageStats, error) {
	orbits, err := w.Orbits()
	if err != nil {
		return CoverageStats{}, err
	}
	if epochs <= 0 {
		epochs = 32
	}
	period := orbits[0].PeriodSeconds()
	stats := CoverageStats{VisibleMin: math.MaxInt32}
	sumVisible, outages := 0, 0
	sumBestEl, covered := 0.0, 0
	for e := 0; e < epochs; e++ {
		t := period * float64(e) / float64(epochs)
		visible := 0
		bestEl := -90.0
		for _, o := range orbits {
			el := ElevationDeg(ECIToECEF(o.PositionECI(t), t), ground)
			if el >= minElevationDeg {
				visible++
				if el > bestEl {
					bestEl = el
				}
			}
		}
		sumVisible += visible
		if visible == 0 {
			outages++
		} else {
			sumBestEl += bestEl
			covered++
		}
		if visible < stats.VisibleMin {
			stats.VisibleMin = visible
		}
		if visible > stats.VisibleMax {
			stats.VisibleMax = visible
		}
	}
	stats.VisibleMean = float64(sumVisible) / float64(epochs)
	stats.OutageFraction = float64(outages) / float64(epochs)
	if covered > 0 {
		stats.MeanBestElevationDeg = sumBestEl / float64(covered)
	}
	return stats, nil
}
