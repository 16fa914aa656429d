package core

import (
	"fmt"

	"leodivide/internal/demand"
	"leodivide/internal/stats"
)

// The user-experience view of a deployment: if every cell gets one
// s-way-spread beam (the regime a fixed-size constellation forces, per
// InverseSize), what throughput does each *location* see when its cell
// shares the beam? Weighting by locations rather than cells shifts the
// distribution sharply downward — most cells are sparse, but most
// locations live in dense cells.

// Experience summarizes per-location throughput under a spread-beam
// deployment.
type Experience struct {
	// Spread is the beamspread factor in force.
	Spread float64
	// P10, Median, P90 are location-weighted throughput quantiles in
	// Mbps (P10 = the rate the luckiest decile beats... the lowest
	// decile of locations exceeds P10).
	P10Mbps, MedianMbps, P90Mbps float64
	// FractionAtLeast maps benchmark rates (Mbps) to the fraction of
	// locations at or above them.
	FractionAtLeast map[float64]float64
}

// ExperienceUnderSpread computes the location-weighted throughput
// distribution when every cell is served by a single beam spread over
// spreadFactor cells.
func (m Model) ExperienceUnderSpread(d *demand.Distribution, spreadFactor float64, benchmarksMbps ...float64) (Experience, error) {
	if spreadFactor < 1 {
		spreadFactor = 1
	}
	perCellMbps := m.Beams.SpreadCellCapacityGbps(spreadFactor) * 1000
	locs := d.Locs()
	samples := make([]stats.WeightedSample, len(locs))
	for i, n := range locs {
		// Every distribution cell has at least one location.
		samples[i] = stats.WeightedSample{
			Value:  perCellMbps / float64(n),
			Weight: float64(n),
		}
	}
	w, err := stats.NewWeightedCDF(samples)
	if err != nil {
		return Experience{}, fmt.Errorf("core: %w", err)
	}
	out := Experience{
		Spread:          spreadFactor,
		P10Mbps:         w.Quantile(0.10),
		MedianMbps:      w.Quantile(0.50),
		P90Mbps:         w.Quantile(0.90),
		FractionAtLeast: make(map[float64]float64, len(benchmarksMbps)),
	}
	if len(benchmarksMbps) == 0 {
		benchmarksMbps = []float64{25, 100}
	}
	for _, b := range benchmarksMbps {
		// Fraction with rate >= b.
		out.FractionAtLeast[b] = w.WeightGT(b-1e-9) / w.TotalWeight()
	}
	return out, nil
}
