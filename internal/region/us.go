package region

// The "us" region: the calibrated BDC + census pipeline behind a
// Region. The scale application, the cell generation, and the income
// assignment (including the per-county fnv hash jitter that orders the
// poverty ranking) compute what the root facade's GenerateDataset once
// computed inline, so the output is byte-identical to the legacy path
// at every (seed, scale, parallelism). The golden corpus and the
// dataset digests enforce that identity.

import (
	"context"
	"strconv"
	"time"

	"leodivide/internal/bdc"
	"leodivide/internal/census"
	"leodivide/internal/obs"
	"leodivide/internal/usgeo"
)

var metricIncomeSecs = obs.Default.Histogram("gen.assign_incomes.seconds", obs.DurationBuckets)

// usRegion wraps the calibrated BDC generator configuration and income
// anchors. US is its one instance: the paper-calibrated configuration.
type usRegion struct {
	cfg     bdc.GenConfig
	anchors []census.QuantileAnchor
}

// US returns the default region: the paper-calibrated United States
// pipeline.
func US() Region {
	return usRegion{cfg: bdc.DefaultGenConfig(), anchors: census.DefaultIncomeAnchors()}
}

func (usRegion) Key() string  { return DefaultKey }
func (usRegion) Name() string { return "United States" }
func (usRegion) Description() string {
	return "calibrated US un(der)served broadband map (BDC + census pipeline)"
}

// Generate runs the legacy pipeline: scale the BDC configuration,
// synthesize the cells with their county sums, then build the
// distribution and the county incomes side by side (distAndIncomes).
func (u usRegion) Generate(ctx context.Context, g GenConfig) (Output, error) {
	if err := g.Validate(); err != nil {
		return Output{}, err
	}
	cfg := u.cfg
	cfg.Seed = g.Seed
	if g.Scale < 1 {
		cfg.TotalLocations = int(float64(cfg.TotalLocations) * g.Scale)
		peaks := make([]bdc.PeakCell, len(cfg.Peaks))
		copy(peaks, cfg.Peaks)
		for i := range peaks {
			peaks[i].Locations = int(float64(peaks[i].Locations) * g.Scale)
			if peaks[i].Locations < 1 {
				peaks[i].Locations = 1
			}
		}
		cfg.Peaks = peaks
	}
	cells, weights, err := bdc.GenerateCells(ctx, cfg)
	if err != nil {
		return Output{}, err
	}
	dist, incomes, err := distAndIncomes(ctx, g.Parallelism, cells, func() (*census.Table, error) {
		//lint:ignore detrand wall-clock feeds the generation span timing only, never the dataset
		start := time.Now()
		_, span := obs.StartSpan(ctx, "gen.assign_incomes")
		defer func() {
			metricIncomeSecs.ObserveSince(start)
			span.End()
		}()
		counties := usgeo.AllCounties()
		return areaIncomes(weights, func(r int) (string, string) {
			return counties[r].FIPS, counties[r].StateAbbr
		}, u.anchors, g.Seed)
	})
	if err != nil {
		return Output{}, err
	}
	return Output{Cells: cells, Dist: dist, Incomes: incomes, Resolution: cfg.Resolution}, nil
}

// areaIncomes builds a region's income table from the location sum of
// each of its areas (US counties, synthetic districts), weights[i] for
// area i, whose code and state or region abbreviation are area(i). The
// codes ascend with i. The areas with demand are ranked by a
// deterministic poverty ordering, the seed-keyed jitter of their codes;
// the ones without demand, whose cells the distribution drops, are
// left out.
func areaIncomes(weights []int, area func(i int) (code, abbr string), anchors []census.QuantileAnchor, seed int64) (*census.Table, error) {
	n := 0
	for _, w := range weights {
		if w != 0 {
			n++
		}
	}
	cw := make([]census.CountyWeight, 0, n)
	prefix := jitterPrefix(seed)
	for i, w := range weights {
		if w == 0 {
			continue
		}
		code, abbr := area(i)
		cw = append(cw, census.CountyWeight{
			FIPS:        code,
			StateAbbr:   abbr,
			Weight:      float64(w),
			PovertyRank: rankJitter(prefix, code),
		})
	}
	return census.AssignIncomes(cw, anchors)
}

// rankJitter is the seed-keyed poverty-rank jitter of a county or
// district code: the 64-bit FNV-1a hash (hash/fnv's New64a, computed
// inline) of "<seed>:<code>", reduced to [0, 1) in steps of 1e-4. It
// is independent of geography, so income and demand density stay
// uncorrelated. prefix is jitterPrefix(seed): FNV-1a hashes byte by
// byte, so the hash of the "<seed>:" every code shares is taken once
// per generation and each code hashes only its own bytes.
func rankJitter(prefix uint64, code string) float64 {
	h := prefix
	for i := 0; i < len(code); i++ {
		h ^= uint64(code[i])
		h *= fnvPrime
	}
	return float64(h%10000) / 10000
}

// jitterPrefix is the FNV-1a state after hashing "<seed>:", exactly
// what fmt prints for the "%d:" of "%d:%s".
func jitterPrefix(seed int64) uint64 {
	var buf [24]byte
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range append(strconv.AppendInt(buf[:0], seed, 10), ':') {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

const fnvPrime = 1099511628211 // FNV-64 prime
