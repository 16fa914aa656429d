package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// final value must be exact (run under -race to also prove data-race
// freedom).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	const goroutines, perG = 64, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (negative adds ignored)", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %g, want 0", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("gauge = %g, want 3.25", g.Value())
	}
}

// TestHistogramConcurrent checks count and sum stay exact under
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", DurationBuckets)
	const goroutines, perG = 32, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	want := float64(goroutines*perG) * 0.001
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: a value
// lands in the first bucket whose upper bound is >= the value, and
// values past the last bound land in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", []float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["sizes"]
	wantCounts := []int64{2, 2, 0, 1} // ≤10: {1,10}; ≤100: {11,100}; ≤1000: none; overflow: {5000}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Max != 5000 {
		t.Errorf("max = %g, want 5000", s.Max)
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 3, 4})
	for v := 0.5; v <= 4; v += 0.5 {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["q"]
	if got := s.Quantile(0.5); got < 1.5 || got > 2.5 {
		t.Errorf("p50 = %g, want within [1.5, 2.5]", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Errorf("p100 = %g, want 4 (max)", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestWriteTextHistogramQuantiles pins the histogram line of the text
// snapshot (the /metrics body): the tail quantiles p90 and p99 sit
// between p50 and max. The observations 1..100 fill ten equal buckets,
// so every quantile interpolates to an exact value.
func TestWriteTextHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "histogram lat count=100 sum=5050 mean=50.5 p50=50 p90=90 p99=99 max=100\n"
	if got := sb.String(); got != want {
		t.Errorf("WriteText:\n got %q\nwant %q", got, want)
	}
}

// TestRegistryGetOrCreate: repeated lookups return the same pointer, so
// instrument caching in package vars is sound.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter returned different pointers for one name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("Gauge returned different pointers for one name")
	}
	h1 := r.Histogram("a", []float64{1, 2})
	h2 := r.Histogram("a", []float64{99}) // later bounds ignored
	if h1 != h2 {
		t.Error("Histogram returned different pointers for one name")
	}
	if len(h2.bounds) != 2 {
		t.Errorf("histogram bounds = %v, want the creation-time bounds", h2.bounds)
	}
}

// TestRegistryReset: instruments zero in place, cached pointers stay
// live.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", CountBuckets)
	c.Add(7)
	h.Observe(3)
	r.Reset()
	if c.Value() != 0 {
		t.Errorf("counter after reset = %d, want 0", c.Value())
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("histogram after reset: count=%d sum=%g, want zeros", h.Count(), h.Sum())
	}
	c.Inc() // cached pointer still records into the registry
	if got := r.Snapshot().Counters["n"]; got != 1 {
		t.Errorf("cached counter detached from registry after reset: snapshot has %d, want 1", got)
	}
}

// TestSnapshotText: deterministic, sorted rendering.
func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(4.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var sb1, sb2 strings.Builder
	if err := r.Snapshot().WriteText(&sb1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb1.String() != sb2.String() {
		t.Error("two snapshots of an idle registry rendered differently")
	}
	out := sb1.String()
	if !strings.Contains(out, "counter   a.count 1") ||
		!strings.Contains(out, "counter   b.count 2") ||
		!strings.Contains(out, "gauge     g 4.5") ||
		!strings.Contains(out, "histogram h count=1") {
		t.Errorf("unexpected snapshot text:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Error("counters not sorted by name")
	}
}

// TestMetricNoAlloc is the no-op overhead guard for the metric side:
// recording into counters, gauges and histograms must never allocate.
func TestMetricNoAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.001)
	}); n != 0 {
		t.Errorf("metric updates allocate %v times per op, want 0", n)
	}
}
