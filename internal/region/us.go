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
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"leodivide/internal/bdc"
	"leodivide/internal/census"
	"leodivide/internal/demand"
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
// synthesize cells, then build the distribution and assign county
// incomes side by side (distAndIncomes).
func (u usRegion) Generate(ctx context.Context, g GenConfig) (Output, error) {
	if err := g.Validate(); err != nil {
		return Output{}, err
	}
	cfg := u.cfg
	cfg.Seed = g.Seed
	cfg.Parallelism = g.Parallelism
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
	cells, err := bdc.GenerateCells(ctx, cfg)
	if err != nil {
		return Output{}, err
	}
	dist, incomes, err := distAndIncomes(ctx, g.Parallelism, cells, func() (*census.Table, error) {
		return assignIncomes(ctx, cells, u.anchors, g.Seed)
	})
	if err != nil {
		return Output{}, err
	}
	return Output{Cells: cells, Dist: dist, Incomes: incomes, Resolution: cfg.Resolution}, nil
}

// assignIncomes distributes county incomes using a deterministic
// poverty ordering: a seed-keyed per-county hash jitter. It sums each
// cell's locations into its county's slot of the FIPS-rank table and
// emits the counties with demand in rank order, which is FIPS order.
// It reads the cells the distribution is built from and skips the ones
// without demand, which the distribution drops (a negative count fails
// the distribution, whose error comes first); integer sums do not
// depend on the order they are taken in.
func assignIncomes(ctx context.Context, cells []demand.Cell, anchors []census.QuantileAnchor, seed int64) (*census.Table, error) {
	//lint:ignore detrand wall-clock feeds the generation span timing only, never the dataset
	start := time.Now()
	_, span := obs.StartSpan(ctx, "gen.assign_incomes")
	defer func() {
		metricIncomeSecs.ObserveSince(start)
		span.End()
	}()
	counties := usCounties()
	weights := make([]int, len(counties.fips))
	n := 0
	for _, c := range cells {
		if c.Locations <= 0 {
			continue
		}
		r, err := counties.rankOf(c.CountyFIPS)
		if err != nil {
			return nil, err
		}
		if weights[r] == 0 {
			n++
		}
		weights[r] += c.Locations
	}
	cw := make([]census.CountyWeight, 0, n)
	prefix := jitterPrefix(seed)
	for r, w := range weights {
		if w == 0 {
			continue
		}
		cw = append(cw, census.CountyWeight{
			FIPS:        counties.fips[r],
			StateAbbr:   counties.abbr[r],
			Weight:      float64(w),
			PovertyRank: rankJitter(prefix, counties.fips[r]),
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

// countyTable is the FIPS-rank table: every US county in
// usgeo.AllCounties order, which is ascending FIPS, with its state, and
// a dense index from each 5-digit code's value to its rank. It depends
// on nothing per seed, so it is built once per process (usCounties).
type countyTable struct {
	fips, abbr []string // by rank
	rank       []uint16 // by code value: 1 + the county's rank, 0 for none
}

var usCounties = sync.OnceValue(func() *countyTable {
	all := usgeo.AllCounties()
	t := &countyTable{
		fips: make([]string, len(all)),
		abbr: make([]string, len(all)),
		rank: make([]uint16, 100000),
	}
	for r, c := range all {
		v, ok := fipsValue(c.FIPS)
		if !ok || r+1 > math.MaxUint16 {
			panic(fmt.Sprintf("region: county table cannot rank FIPS %q at %d", c.FIPS, r))
		}
		t.fips[r], t.abbr[r] = c.FIPS, c.StateAbbr
		t.rank[v] = uint16(r + 1)
	}
	return t
})

// fipsValue returns the value of a 5-digit code.
func fipsValue(s string) (int, bool) {
	if len(s) != 5 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int(d)
	}
	return v, true
}

// rankOf returns the rank of a county FIPS code. An unknown code is a
// hard error, named by what is wrong with it: a silently dropped or
// misfiled county would skew the poverty ordering without any signal.
func (t *countyTable) rankOf(fips string) (int, error) {
	if v, ok := fipsValue(fips); ok && t.rank[v] != 0 {
		return int(t.rank[v]) - 1, nil
	}
	if len(fips) < 2 {
		return 0, fmt.Errorf("region: county FIPS %q too short for a state prefix", fips)
	}
	for _, s := range usgeo.States() {
		if s.FIPS == fips[:2] {
			return 0, fmt.Errorf("region: unknown county FIPS %q in state %s", fips, s.Abbr)
		}
	}
	return 0, fmt.Errorf("region: unknown state FIPS prefix %q in county FIPS %q", fips[:2], fips)
}
