// Package stats provides the small set of empirical-statistics primitives
// the capacity and affordability models are built on: empirical CDFs,
// quantiles (plain and weighted), histograms and summary statistics.
//
// Everything operates on float64 samples. Integer location counts are
// converted by callers; the package is deliberately unaware of what the
// samples mean.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by constructors given an empty sample set.
var ErrNoSamples = errors.New("stats: no samples")

// CDF is an empirical cumulative distribution function over a fixed
// sample set. The zero value is unusable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input slice is copied
// and may be reused by the caller.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// Len reports the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// P returns the empirical probability P[X <= x].
func (c *CDF) P(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x,
	// so we search for the first index strictly greater than x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method on the sorted samples. Quantile(0) is the minimum and
// Quantile(1) the maximum.
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.sorted[rank]
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// Mean returns the arithmetic mean of the samples.
func (c *CDF) Mean() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Sum returns the sum of the samples.
func (c *CDF) Sum() float64 {
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum
}

// Series samples the CDF at n evenly spaced points across [Min, Max] and
// returns (x, P[X<=x]) pairs, suitable for plotting a figure. n must be
// at least 2.
func (c *CDF) Series(n int) []Point {
	if n < 2 {
		n = 2
	}
	lo, hi := c.Min(), c.Max()
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: c.P(x)}
	}
	return pts
}

// Point is a single (x, y) pair in a rendered series.
type Point struct {
	X, Y float64
}

// WeightedSample pairs a value with a nonnegative weight (e.g. a county
// median income weighted by its location count).
type WeightedSample struct {
	Value  float64
	Weight float64
}

// WeightedCDF is an empirical CDF over weighted samples.
type WeightedCDF struct {
	sorted []WeightedSample
	cum    []float64 // cumulative weight, aligned with sorted
	total  float64
}

// NewWeightedCDF builds a weighted empirical CDF. Samples with zero
// weight are dropped; negative weights are an error.
func NewWeightedCDF(samples []WeightedSample) (*WeightedCDF, error) {
	kept := make([]WeightedSample, 0, len(samples))
	for _, s := range samples {
		if s.Weight < 0 {
			return nil, fmt.Errorf("stats: negative weight %v for value %v", s.Weight, s.Value)
		}
		if s.Weight > 0 {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil, ErrNoSamples
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Value < kept[j].Value })
	cum := make([]float64, len(kept))
	total := 0.0
	for i, s := range kept {
		total += s.Weight
		cum[i] = total
	}
	return &WeightedCDF{sorted: kept, cum: cum, total: total}, nil
}

// TotalWeight returns the sum of all weights.
func (w *WeightedCDF) TotalWeight() float64 { return w.total }

// WeightLE returns the total weight of samples with value <= x.
func (w *WeightedCDF) WeightLE(x float64) float64 {
	i := sort.Search(len(w.sorted), func(i int) bool { return w.sorted[i].Value > x })
	if i == 0 {
		return 0
	}
	return w.cum[i-1]
}

// WeightGT returns the total weight of samples with value > x.
func (w *WeightedCDF) WeightGT(x float64) float64 { return w.total - w.WeightLE(x) }

// Quantile returns the smallest value v such that the weight-fraction of
// samples <= v is at least q.
func (w *WeightedCDF) Quantile(q float64) float64 {
	if q <= 0 {
		return w.sorted[0].Value
	}
	target := q * w.total
	i := sort.Search(len(w.cum), func(i int) bool { return w.cum[i] >= target })
	if i >= len(w.sorted) {
		i = len(w.sorted) - 1
	}
	return w.sorted[i].Value
}

// Summary holds the headline statistics of a sample set.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Median float64
	P90, P99     float64
	Sum          float64
	StdDev       float64
}

// SummarizeCDF computes a Summary from an already-built CDF, reusing
// its sorted sample array instead of copying and re-sorting.
func SummarizeCDF(c *CDF) (Summary, error) {
	if c == nil || len(c.sorted) == 0 {
		return Summary{}, ErrNoSamples
	}
	mean := c.Mean()
	varsum := 0.0
	for _, v := range c.sorted {
		d := v - mean
		varsum += d * d
	}
	sd := 0.0
	if len(c.sorted) > 1 {
		sd = math.Sqrt(varsum / float64(len(c.sorted)-1))
	}
	return Summary{
		N:      c.Len(),
		Min:    c.Min(),
		Max:    c.Max(),
		Mean:   mean,
		Median: c.Quantile(0.5),
		P90:    c.Quantile(0.90),
		P99:    c.Quantile(0.99),
		Sum:    c.Sum(),
		StdDev: sd,
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Median, s.P90, s.P99, s.Max, s.Mean)
}

// Lorenz returns n+1 points of the Lorenz curve of the samples: the
// cumulative share of the total held by the poorest fraction p of
// samples, for p = 0, 1/n, …, 1. Samples must be nonnegative.
func Lorenz(samples []float64, n int) ([]Point, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if n < 1 {
		n = 100
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return nil, fmt.Errorf("stats: Lorenz requires nonnegative samples, got %v", sorted[0])
	}
	total := 0.0
	cum := make([]float64, len(sorted)+1)
	for i, v := range sorted {
		total += v
		cum[i+1] = total
	}
	if total == 0 {
		return nil, fmt.Errorf("stats: Lorenz of all-zero samples")
	}
	out := make([]Point, 0, n+1)
	for k := 0; k <= n; k++ {
		p := float64(k) / float64(n)
		idx := int(p * float64(len(sorted)))
		if idx > len(sorted) {
			idx = len(sorted)
		}
		out = append(out, Point{X: p, Y: cum[idx] / total})
	}
	return out, nil
}

// Gini returns the Gini coefficient of the samples (0 = perfectly
// even, →1 = maximally concentrated). Samples must be nonnegative.
func Gini(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, fmt.Errorf("stats: Gini requires nonnegative samples, got %v", sorted[0])
	}
	n := float64(len(sorted))
	total := 0.0
	weighted := 0.0
	for i, v := range sorted {
		total += v
		weighted += float64(i+1) * v
	}
	if total == 0 {
		return 0, fmt.Errorf("stats: Gini of all-zero samples")
	}
	return (2*weighted - (n+1)*total) / (n * total), nil
}
