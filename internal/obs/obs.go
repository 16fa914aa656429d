// Package obs is the repo's zero-dependency observability substrate:
// counters, gauges and fixed-bucket histograms held in a snapshot-able
// registry, plus lightweight span tracing propagated via
// context.Context (see span.go).
//
// Design rules, in order of priority:
//
//   - Cheap when unobserved. Metric updates are single atomic
//     operations (histograms add one CAS loop for the running sum) and
//     never allocate; span creation with no collector installed is one
//     atomic load and returns a nil *Span whose methods are no-ops.
//     Instrumented hot paths pay nanoseconds, so experiment outputs and
//     benchmark numbers are unaffected by the instrumentation being
//     compiled in.
//   - Deterministic reads. Snapshot returns every instrument under one
//     lock-protected walk with names sorted, so two snapshots of an
//     idle registry render identically.
//   - Instruments are get-or-create by name and the returned pointers
//     are stable for the registry's lifetime: callers cache them in
//     package variables and skip the map lookup on the hot path.
//
// The package deliberately has no exporter, no labels and no
// dependencies: the CLI renders snapshots as text or JSON (expvar), and
// the repo benchmark under _bench/ reads spans and snapshots directly.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 (worker counts, sizes, utilizations).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicFloat is a float64 updated with CAS loops so histograms can
// maintain running sums and maxima without locks.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram: observation v lands in the
// first bucket whose upper bound is >= v, or in the overflow bucket
// past the last bound. Bounds are fixed at creation; alongside the
// bucket counts it tracks total count, sum and max.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
	max    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
}

// ObserveSince records the seconds elapsed since t0 — the idiom for
// latency histograms built with DurationBuckets.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Canonical bucket sets. All are upper bounds; values past the last
// bound land in the overflow bucket.
var (
	// DurationBuckets cover 1µs to 60s, for latency histograms in
	// seconds.
	DurationBuckets = []float64{
		1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
	// SizeBuckets cover 256 B to 256 MB, for byte-size histograms.
	SizeBuckets = []float64{
		256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
	}
	// CountBuckets cover 1 to 10M, for task/item-count histograms.
	CountBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 1e3, 1e4, 1e5, 1e6, 1e7}
	// RatioBuckets cover (0,1] in tenths, for fractions such as worker
	// occupancy.
	RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
)

// Registry holds named instruments. Instruments are get-or-create: the
// first caller of a name fixes its kind (and a histogram's bounds), and
// every later call returns the same pointer, so hot paths cache the
// pointer once in a package variable.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the pipeline's instrumentation
// records into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use. Later calls return the existing histogram unchanged, so
// bounds passed after creation are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument in place. Cached instrument pointers
// remain valid: they are zeroed, not replaced. Intended for tests and
// for the bench harness to isolate per-phase readings.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.store(0)
		h.max.store(math.Inf(-1))
	}
}
