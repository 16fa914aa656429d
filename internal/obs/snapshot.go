package obs

import (
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of every instrument in a registry.
// It is plain data — JSON-marshalable (expvar, debug endpoints) and
// renderable as text (the CLI's -metrics flag).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one histogram. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket past the final
// bound. Max is 0 when Count is 0 so the snapshot stays JSON-safe.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation within the bucket that contains it. Observations in
// the overflow bucket are approximated by Max.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, n := range h.Counts {
		if float64(cum+n) < target {
			cum += n
			continue
		}
		if i >= len(h.Bounds) {
			return h.Max
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if hi > h.Max {
			hi = h.Max
		}
		if n == 0 || hi <= lo {
			return hi
		}
		frac := (target - float64(cum)) / float64(n)
		return lo + frac*(hi-lo)
	}
	return h.Max
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    h.sum.load(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		if hs.Count > 0 {
			hs.Max = h.max.load()
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteText renders the snapshot as sorted, line-oriented text:
//
//	counter   safeio.fsyncs 12
//	gauge     gen.cells 71532
//	histogram par.sweep.seconds count=8 sum=1.2045 mean=0.1506 p50=0.0881 p90=0.4102 p99=0.5099 max=0.5210
//
// Instruments with zero activity are included so the reader sees what
// exists, not only what fired.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter   %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "gauge     %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%.6g mean=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g\n",
			name, h.Count, h.Sum, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}
