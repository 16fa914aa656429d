package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrNoSamples {
		t.Fatalf("NewCDF(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{3, 1, 2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.6}, {3, 0.8}, {4.9, 0.8}, {5, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := c.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := c.Mean(); math.Abs(got-2.6) > 1e-12 {
		t.Errorf("Mean = %v, want 2.6", got)
	}
	if got := c.Sum(); math.Abs(got-13) > 1e-12 {
		t.Errorf("Sum = %v, want 13", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c, _ := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.1, 10}, {0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {-1, 10}, {2, 100},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c, _ := NewCDF(in)
	in[0] = 1000
	if got := c.Max(); got != 3 {
		t.Errorf("Max = %v after mutating input, want 3", got)
	}
}

// Property: P is monotone nondecreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		c, err := NewCDF(raw)
		if err != nil {
			return false
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := c.P(a), c.P(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and P are near-inverses: P(Quantile(q)) >= q.
func TestQuantileInverseProperty(t *testing.T) {
	f := func(raw []float64, q01 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		c, err := NewCDF(raw)
		if err != nil {
			return false
		}
		q := float64(q01) / 255
		return c.P(c.Quantile(q)) >= q-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2, 3, 4})
	pts := c.Series(5)
	if len(pts) != 5 {
		t.Fatalf("Series(5) has %d points", len(pts))
	}
	if pts[0].X != 1 || pts[4].X != 4 {
		t.Errorf("Series endpoints = %v, %v; want 1, 4", pts[0].X, pts[4].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("Series not monotone at %d", i)
		}
	}
	if got := c.Series(1); len(got) != 2 {
		t.Errorf("Series(1) has %d points, want clamp to 2", len(got))
	}
}

func TestWeightedCDF(t *testing.T) {
	w, err := NewWeightedCDF([]WeightedSample{
		{Value: 10, Weight: 1},
		{Value: 20, Weight: 3},
		{Value: 30, Weight: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.TotalWeight(); got != 10 {
		t.Errorf("TotalWeight = %v, want 10", got)
	}
	if got := weightedP(w, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("P(10) = %v, want 0.1", got)
	}
	if got := weightedP(w, 20); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P(20) = %v, want 0.4", got)
	}
	if got := weightedP(w, 25); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P(25) = %v, want 0.4", got)
	}
	if got := weightedP(w, 30); got != 1 {
		t.Errorf("P(30) = %v, want 1", got)
	}
	if got := w.WeightLE(20); got != 4 {
		t.Errorf("WeightLE(20) = %v, want 4", got)
	}
	if got := w.WeightGT(20); got != 6 {
		t.Errorf("WeightGT(20) = %v, want 6", got)
	}
	if got := w.Quantile(0.05); got != 10 {
		t.Errorf("Quantile(0.05) = %v, want 10", got)
	}
	if got := w.Quantile(0.4); got != 20 {
		t.Errorf("Quantile(0.4) = %v, want 20", got)
	}
	if got := w.Quantile(0.41); got != 30 {
		t.Errorf("Quantile(0.41) = %v, want 30", got)
	}
}

func TestWeightedCDFErrors(t *testing.T) {
	if _, err := NewWeightedCDF(nil); err == nil {
		t.Error("NewWeightedCDF(nil) should fail")
	}
	if _, err := NewWeightedCDF([]WeightedSample{{Value: 1, Weight: -1}}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeightedCDF([]WeightedSample{{Value: 1, Weight: 0}}); err == nil {
		t.Error("all-zero weights should fail")
	}
}

// Property: weighted CDF with unit weights matches the unweighted CDF.
func TestWeightedMatchesUnweightedProperty(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		if len(raw) == 0 {
			return true
		}
		c, err := NewCDF(raw)
		if err != nil {
			return false
		}
		ws := make([]WeightedSample, len(raw))
		for i, v := range raw {
			ws[i] = WeightedSample{Value: v, Weight: 1}
		}
		w, err := NewWeightedCDF(ws)
		if err != nil {
			return false
		}
		return math.Abs(c.P(x)-weightedP(w, x)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = rng.NormFloat64()*2 + 10
	}
	s, err := summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-10) > 0.1 {
		t.Errorf("Mean = %v, want ~10", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 0.1 {
		t.Errorf("StdDev = %v, want ~2", s.StdDev)
	}
	if math.Abs(s.Median-10) > 0.15 {
		t.Errorf("Median = %v, want ~10", s.Median)
	}
	if s.P90 <= s.Median || s.P99 <= s.P90 {
		t.Errorf("quantiles out of order: p50=%v p90=%v p99=%v", s.Median, s.P90, s.P99)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
	if _, err := summarize(nil); err == nil {
		t.Error("summarize(nil) should fail")
	}
}

// Property: Summary respects sorted-order invariants.
func TestSummaryOrderProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s, err := summarize(raw)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.Median && s.Median <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGini(t *testing.T) {
	// Perfect equality.
	if g, err := Gini([]float64{5, 5, 5, 5}); err != nil || math.Abs(g) > 1e-12 {
		t.Errorf("Gini(equal) = %v, %v", g, err)
	}
	// Maximal concentration approaches 1 − 1/n.
	g, err := Gini([]float64{0, 0, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini(concentrated) = %v, want 0.75", g)
	}
	if _, err := Gini(nil); err == nil {
		t.Error("empty Gini should fail")
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative Gini should fail")
	}
	if _, err := Gini([]float64{0, 0}); err == nil {
		t.Error("all-zero Gini should fail")
	}
}

func TestLorenz(t *testing.T) {
	pts, err := Lorenz([]float64{1, 1, 1, 97}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Y != 0 || pts[4].Y != 1 {
		t.Errorf("Lorenz endpoints = %v, %v", pts[0].Y, pts[4].Y)
	}
	// The poorest 75% hold 3% of the total.
	if math.Abs(pts[3].Y-0.03) > 1e-12 {
		t.Errorf("Lorenz(0.75) = %v, want 0.03", pts[3].Y)
	}
	// Curve is convex-ish: nondecreasing and below the diagonal.
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("Lorenz not monotone")
		}
		if pts[i].Y > pts[i].X+1e-12 {
			t.Fatal("Lorenz above diagonal")
		}
	}
	if _, err := Lorenz(nil, 10); err == nil {
		t.Error("empty Lorenz should fail")
	}
}

// Property: Gini is scale-invariant and within [0, 1).
func TestGiniScaleInvariantProperty(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			samples[i] = float64(v)
			anyPositive = anyPositive || v > 0
		}
		if !anyPositive {
			return true
		}
		g1, err := Gini(samples)
		if err != nil {
			return false
		}
		scale := 1 + float64(scaleRaw)
		scaled := make([]float64, len(samples))
		for i := range samples {
			scaled[i] = samples[i] * scale
		}
		g2, err := Gini(scaled)
		if err != nil {
			return false
		}
		return math.Abs(g1-g2) < 1e-9 && g1 >= -1e-12 && g1 < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// weightedP returns the weight fraction of samples with value <= x.
func weightedP(w *WeightedCDF, x float64) float64 {
	return w.WeightLE(x) / w.TotalWeight()
}

// summarize computes a Summary of raw samples through SummarizeCDF.
func summarize(samples []float64) (Summary, error) {
	c, err := NewCDF(samples)
	if err != nil {
		return Summary{}, err
	}
	return SummarizeCDF(c)
}
