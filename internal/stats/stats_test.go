package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrNoSamples {
		t.Fatalf("NewCDF(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestNewCDFRejectsNaN(t *testing.T) {
	quiet, signalling := math.NaN(), math.Float64frombits(0x7ff0000000000001)
	for _, samples := range [][]float64{{quiet}, {1, quiet, 2}, {signalling}, {0, 0, signalling}} {
		if c, err := NewCDF(samples); err != ErrNaNSample {
			t.Errorf("NewCDF(%v) = %v, %v; want ErrNaNSample", samples, c, err)
		}
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

// TestCDFKeepsItsSamples: NewCDF sorts unordered samples in place and
// keeps an ascending column as it is, without a copy.
func TestCDFKeepsItsSamples(t *testing.T) {
	in := []float64{3, 1, 2}
	c, err := NewCDF(in)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in, []float64{1, 2, 3}) || &c.sorted[0] != &in[0] {
		t.Errorf("NewCDF kept %v, its input became %v; want the input, sorted in place", c.sorted, in)
	}
	asc := []float64{1, 1, 4, 9}
	if c, err = NewCDF(asc); err != nil {
		t.Fatal(err)
	}
	if &c.sorted[0] != &asc[0] || !slices.Equal(asc, []float64{1, 1, 4, 9}) {
		t.Error("NewCDF copied or reordered an ascending column")
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
	if g, err := gini([]float64{5, 5, 5, 5}); err != nil || math.Abs(g) > 1e-12 {
		t.Errorf("Gini(equal) = %v, %v", g, err)
	}
	// Maximal concentration approaches 1 − 1/n.
	g, err := gini([]float64{0, 0, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini(concentrated) = %v, want 0.75", g)
	}
	if _, err := gini(nil); err == nil {
		t.Error("empty Gini should fail")
	}
	if _, err := gini([]float64{-1, 2}); err == nil {
		t.Error("negative Gini should fail")
	}
	if _, err := gini([]float64{0, 0}); err == nil {
		t.Error("all-zero Gini should fail")
	}
}

func TestLorenz(t *testing.T) {
	pts, err := lorenz([]float64{1, 1, 1, 97}, 4)
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
	if _, err := lorenz(nil, 10); err == nil {
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
		g1, err := gini(samples)
		if err != nil {
			return false
		}
		scale := 1 + float64(scaleRaw)
		scaled := make([]float64, len(samples))
		for i := range samples {
			scaled[i] = samples[i] * scale
		}
		g2, err := gini(scaled)
		if err != nil {
			return false
		}
		return math.Abs(g1-g2) < 1e-9 && g1 >= -1e-12 && g1 < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// gini is NewCDF(samples).Gini() over a copy, so the caller's order
// survives for the oracle; no samples fail in NewCDF.
func gini(samples []float64) (float64, error) {
	c, err := NewCDF(slices.Clone(samples))
	if err != nil {
		return 0, err
	}
	return c.Gini()
}

// lorenz is NewCDF(samples).Lorenz(n) over a copy; no samples fail in
// NewCDF.
func lorenz(samples []float64, n int) ([]Point, error) {
	c, err := NewCDF(slices.Clone(samples))
	if err != nil {
		return nil, err
	}
	return c.Lorenz(n)
}

// hasNaN reports whether samples hold a NaN, which NewCDF refuses.
func hasNaN(samples []float64) bool {
	return slices.ContainsFunc(samples, math.IsNaN)
}

// giniOracle is the copy-sort-sum Gini that CDF.Gini replaced.
func giniOracle(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	if hasNaN(samples) {
		return 0, ErrNaNSample
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

// lorenzOracle is the copy-sort Lorenz curve over a cumulative array
// that CDF.Lorenz replaced.
func lorenzOracle(samples []float64, n int) ([]Point, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if hasNaN(samples) {
		return nil, ErrNaNSample
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

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkGiniLorenzBits fails t unless CDF.Gini and CDF.Lorenz(n) equal
// their oracles bit for bit, with the same error text.
func checkGiniLorenzBits(t *testing.T, samples []float64, n int) {
	t.Helper()
	g, err := gini(samples)
	wantG, wantErr := giniOracle(samples)
	if errText(err) != errText(wantErr) || math.Float64bits(g) != math.Float64bits(wantG) {
		t.Errorf("Gini(%v) = %v, %q; oracle %v, %q", samples, g, errText(err), wantG, errText(wantErr))
	}
	pts, err := lorenz(samples, n)
	want, wantErr := lorenzOracle(samples, n)
	if errText(err) != errText(wantErr) || len(pts) != len(want) {
		t.Fatalf("Lorenz(%v, %d) = %d points, %q; oracle %d points, %q",
			samples, n, len(pts), errText(err), len(want), errText(wantErr))
	}
	for i := range want {
		if math.Float64bits(pts[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(pts[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("Lorenz(%v, %d)[%d] = %v, oracle %v", samples, n, i, pts[i], want[i])
		}
	}
}

// giniLorenzSeeds are the oracle cases: ties, zeros, a single sample,
// all-zero input, a negative sample, and sample counts that do not
// divide the point count.
func giniLorenzSeeds() [][]float64 {
	rng := rand.New(rand.NewSource(11))
	skewed := make([]float64, 997)
	for i := range skewed {
		skewed[i] = math.Floor(math.Exp(rng.NormFloat64() * 2))
	}
	return [][]float64{
		nil,
		{7},
		{0},
		{0, 0, 0},
		{5, 5, 5, 5},
		{0, 0, 0, 100},
		{1, 1, 1, 97},
		{3, 0, 3, 0, 1, 2, 2},
		{-1, 2},
		{4, -0.5, 0},
		{0.1, 0.2, 0.3},
		{1e300, 1e300, 1},
		{3, math.NaN(), 1},
		skewed,
	}
}

func TestCDFGiniLorenzMatchOracle(t *testing.T) {
	for _, samples := range giniLorenzSeeds() {
		for _, n := range []int{-1, 0, 1, 3, 4, 7, 100, 1500} {
			checkGiniLorenzBits(t, samples, n)
		}
	}
}

func FuzzCDFGiniLorenz(f *testing.F) {
	for _, samples := range giniLorenzSeeds() {
		data := make([]byte, 8*len(samples))
		for i, v := range samples {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(data, uint8(100))
	}
	// Two NaNs with different payloads, one signalling and one quiet:
	// the sorts ordered them differently before NewCDF refused NaN.
	f.Add([]byte("000000\xf2\xff000000\xff\xff"), uint8(218))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		samples := make([]float64, len(data)/8)
		for i := range samples {
			samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkGiniLorenzBits(t, samples, int(n))
	})
}

// weightedP returns the weight fraction of samples with value <= x.
func weightedP(w *WeightedCDF, x float64) float64 {
	return w.WeightLE(x) / w.TotalWeight()
}

// summarize computes a Summary of raw samples, copied, through
// SummarizeCDF.
func summarize(samples []float64) (Summary, error) {
	c, err := NewCDF(slices.Clone(samples))
	if err != nil {
		return Summary{}, err
	}
	return SummarizeCDF(c)
}
