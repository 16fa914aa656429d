package region

// The "us" region: the calibrated BDC + census pipeline behind a
// Region. This is a relocation, not a rewrite — the scale application,
// the cell generation, and the income assignment (including the
// per-county fnv hash jitter that orders the poverty ranking) are the
// exact statements the root facade's GenerateDataset used to execute
// inline, so the output is byte-identical to the legacy path at every
// (seed, scale, parallelism). The golden corpus enforces that identity.

import (
	"context"
	"fmt"
	"sort"
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
// anchors. The default instance (US) carries the paper-calibrated
// configuration; USWith builds advanced variants for the facade's
// WithGenConfig/WithIncomeAnchors options.
type usRegion struct {
	cfg     bdc.GenConfig
	anchors []census.QuantileAnchor
}

// US returns the default region: the paper-calibrated United States
// pipeline.
func US() Region {
	return usRegion{cfg: bdc.DefaultGenConfig(), anchors: census.DefaultIncomeAnchors()}
}

// USWith returns the US region with a replacement generator
// configuration and income anchors (the facade's advanced options).
func USWith(cfg bdc.GenConfig, anchors []census.QuantileAnchor) Region {
	return usRegion{cfg: cfg, anchors: anchors}
}

func (usRegion) Key() string  { return DefaultKey }
func (usRegion) Name() string { return "United States" }
func (usRegion) Description() string {
	return "calibrated US un(der)served broadband map (BDC + census pipeline)"
}

// Generate runs the legacy pipeline: scale the BDC configuration,
// synthesize cells, build the distribution, assign county incomes.
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
	cells, err := bdc.GenerateCells(ctx, cfg)
	if err != nil {
		return Output{}, err
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		return Output{}, err
	}
	incomes, err := assignIncomes(ctx, dist, u.anchors, g.Seed)
	if err != nil {
		return Output{}, err
	}
	return Output{Cells: cells, Dist: dist, Incomes: incomes, Resolution: cfg.Resolution}, nil
}

// assignIncomes distributes county incomes using a deterministic
// poverty ordering: state rural weight (a proxy for rural poverty) plus
// a per-county hash jitter. The per-county work is one short hash, so
// it runs serially over the sorted FIPS list.
func assignIncomes(ctx context.Context, dist *demand.Distribution, anchors []census.QuantileAnchor, seed int64) (*census.Table, error) {
	//lint:ignore detrand wall-clock feeds the generation span timing only, never the dataset
	start := time.Now()
	_, span := obs.StartSpan(ctx, "gen.assign_incomes")
	defer func() {
		metricIncomeSecs.ObserveSince(start)
		span.End()
	}()
	weights := dist.CountyWeights()
	fipsList := make([]string, 0, len(weights))
	for fips := range weights {
		fipsList = append(fipsList, fips)
	}
	sort.Strings(fipsList)
	cw := make([]census.CountyWeight, len(fipsList))
	for i, fips := range fipsList {
		abbr, err := stateOfFIPS(fips)
		if err != nil {
			return nil, err
		}
		cw[i] = census.CountyWeight{
			FIPS:        fips,
			StateAbbr:   abbr,
			Weight:      float64(weights[fips]),
			PovertyRank: rankJitter(seed, fips),
		}
	}
	return census.AssignIncomes(cw, anchors)
}

// rankJitter is the seed-keyed poverty-rank jitter of a county or
// district code: the 64-bit FNV-1a hash (hash/fnv's New64a, computed
// inline) of "<seed>:<code>", reduced to [0, 1) in steps of 1e-4. It
// is independent of geography, so income and demand density stay
// uncorrelated.
func rankJitter(seed int64, code string) float64 {
	var buf [32]byte
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range jitterInput(buf[:0], seed, code) {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-64 prime
	}
	return float64(h%10000) / 10000
}

// jitterInput appends the bytes rankJitter hashes to buf: exactly what
// fmt prints for "%d:%s", without fmt's per-call cost.
func jitterInput(buf []byte, seed int64, code string) []byte {
	buf = strconv.AppendInt(buf, seed, 10)
	buf = append(buf, ':')
	return append(buf, code...)
}

// stateOfFIPS maps a county FIPS prefix to a state abbreviation via the
// usgeo tables. An unknown or too-short prefix is a hard error: a
// silently empty state abbreviation used to flow into the income table
// and skew the poverty ordering without any signal. The lookup table is
// built once under sync.Once — datasets may generate on many goroutines
// at once, so unsynchronized lazy initialization would race.
func stateOfFIPS(fips string) (string, error) {
	if len(fips) < 2 {
		return "", fmt.Errorf("region: county FIPS %q too short for a state prefix", fips)
	}
	stateFIPSOnce.Do(func() {
		m := make(map[string]string)
		for _, s := range usgeo.States() {
			m[s.FIPS] = s.Abbr
		}
		stateFIPSByPrefix = m
	})
	abbr, ok := stateFIPSByPrefix[fips[:2]]
	if !ok {
		return "", fmt.Errorf("region: unknown state FIPS prefix %q in county FIPS %q", fips[:2], fips)
	}
	return abbr, nil
}

var (
	stateFIPSOnce     sync.Once
	stateFIPSByPrefix map[string]string
)
