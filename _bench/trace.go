package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"leodivide"
	"leodivide/internal/demand"
	"leodivide/internal/obs"
	"leodivide/internal/region"
	"leodivide/internal/serve"
	"leodivide/internal/traffic"
)

// probeReps is how many times the traced run repeats each layer probe;
// cold reproductions, which cost a dataset each, are repeated
// coldProbeReps times.
const (
	probeReps     = 5
	coldProbeReps = 3
)

// tracer gathers the per-layer data of a traced run: the program's own
// obs spans, handler timings, and samples timed around calls into each
// module from outside.
type tracer struct {
	spans      *obs.RecordingCollector // the traced window
	probeSpans *obs.RecordingCollector // the layer probes
	handler    sampler
	samples    map[string][]float64
	units      map[string]string
}

func newTracer() *tracer {
	return &tracer{
		spans:      &obs.RecordingCollector{},
		probeSpans: &obs.RecordingCollector{},
		samples:    map[string][]float64{},
		units:      map[string]string{},
	}
}

func (t *tracer) add(name, unit string, v float64) {
	t.samples[name] = append(t.samples[name], v)
	t.units[name] = unit
}

// recordOp keeps one cold reproduction's per-layer timings.
func (t *tracer) recordOp(names []string, tm *opTiming) {
	t.add("gen.dataset_ms", "ms", ms(tm.gen))
	t.add("gen.dataset_allocs", "count", float64(tm.genAllocs))
	t.add("gen.dataset_mb", "MB", float64(tm.genBytes)/(1<<20))
	for i, d := range tm.experiments {
		t.add("exp."+names[i]+".cold_ms", "ms", ms(d))
	}
	t.add("stage.hits", "count", float64(tm.stageHits))
	t.add("stage.misses", "count", float64(tm.stageMisses))
	t.add("stage.evictions", "count", float64(tm.stageEvicted))
	t.add("stage.hit_ratio", "ratio", ratio(float64(tm.stageHits), float64(tm.stageHits+tm.stageMisses)))
}

// finish reports the median of every sampled layer the workload's own
// window did not already report.
func (t *tracer) finish(m metrics) {
	for name, xs := range t.samples {
		if _, ok := m[name]; !ok {
			m.set(name, median(xs), t.units[name])
		}
	}
}

// spanMetrics derives layer metrics from the program's existing spans:
// generation stages (from the window, or the probes where the window
// generates nothing), the cold grid enumeration of set-up, and the
// parallel sweeps per op of the window.
func (t *tracer) spanMetrics(m metrics, setup *obs.RecordingCollector, ops float64) {
	durations := func(c *obs.RecordingCollector, name string) []float64 {
		var out []float64
		for _, s := range c.Spans() {
			if s.Name == name {
				out = append(out, ms(s.Duration))
			}
		}
		return out
	}
	for span, name := range map[string]string{
		"bdc.generate_cells": "gen.generate_cells_ms",
		"bdc.sample_sites":   "gen.sample_sites_ms",
		"gen.assign_incomes": "gen.assign_incomes_ms",
	} {
		xs := durations(t.spans, span)
		if len(xs) == 0 {
			xs = durations(t.probeSpans, span)
		}
		m.set(name, median(xs), "ms")
	}
	var usCells float64
	for _, d := range durations(setup, "bdc.us_cells") {
		usCells += d
	}
	m.set("gen.us_cells_ms", usCells, "ms")
	sweeps := durations(t.spans, "par.sweep")
	m.set("par.sweeps_per_op", ratio(float64(len(sweeps)), ops), "count")
	m.set("par.sweep_ms", median(sweeps), "ms")
}

// probe times calls into each layer's public functions from outside,
// on a fresh dataset at the workload seed, and fills every per-layer
// metric the window did not report. Metrics of a layer the workload
// never reaches (serve handler timings on reproduce, say) read 0.
func probe(ctx context.Context, cfg config, w workload, tr *tracer, m metrics) error {
	restore := obs.SetCollector(tr.probeSpans)
	defer restore()
	names := experimentNames()
	if cfg.workload != "reproduce" {
		for _, seed := range seedCycle(cfg.seed, coldProbeReps) {
			tm := &opTiming{}
			if _, _, err := reproduceOp(ctx, seed, cfg.scale, 0, tm, true); err != nil {
				return err
			}
			tr.recordOp(names, tm)
		}
	}

	ds, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(cfg.seed), leodivide.WithScale(cfg.scale))
	if err != nil {
		return err
	}
	timed := func(name, unit string, scale float64, fn func() error) error {
		for i := 0; i < probeReps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			tr.add(name, unit, float64(time.Since(start))/scale)
		}
		return nil
	}
	msUnit, usUnit := float64(time.Millisecond), float64(time.Microsecond)

	if err := timed("demand.distribution_ms", "ms", msUnit, func() error {
		_, err := demand.NewDistribution(ds.Cells)
		return err
	}); err != nil {
		return err
	}
	if err := timed("gen.sibling_region_ms", "ms", msUnit, func() error {
		for _, key := range region.Names() {
			if key == region.DefaultKey {
				continue
			}
			if _, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(cfg.seed),
				leodivide.WithScale(cfg.scale), leodivide.WithRegion(key)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// The busyhour experiment's own call: the default diurnal profile
	// over a half-width-8.5° satellite footprint.
	if err := timed("traffic.stagger_ms", "ms", msUnit, func() error {
		_, err := traffic.AnalyzeStagger(traffic.DefaultProfile(), ds.Cells, 8.5)
		return err
	}); err != nil {
		return err
	}

	// Warm experiments: the serve-miss set on a dataset whose stage memo
	// one untimed run has filled, and the encode of each response.
	var responses []serve.Response
	for _, e := range leodivide.NewModel().Experiments() {
		if !missExperiment(e.Name) {
			continue
		}
		v, err := e.Run(ctx, ds)
		if err != nil {
			return err
		}
		if err := timed("exp."+e.Name+".warm_ms", "ms", msUnit, func() error {
			_, err := e.Run(ctx, ds)
			return err
		}); err != nil {
			return err
		}
		sc := leodivide.DefaultScenarioConfig(e.Name)
		sc.Seed, sc.Scale = cfg.seed, cfg.scale
		key, err := sc.CanonicalKey()
		if err != nil {
			return err
		}
		responses = append(responses, serve.Response{
			Schema: leodivide.ScenarioSchema, Key: key, Experiment: e.Name,
			Seed: cfg.seed, Scale: cfg.scale, Result: v,
		})
	}
	perCall := func(n int) float64 { return usUnit * float64(n) }
	if err := timed("serve.encode_us", "us", perCall(len(responses)), func() error {
		for _, r := range responses {
			if _, err := json.Marshal(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Request decode and canonical key over the workload's own mix.
	bodies := w.mix()
	base := leodivide.ScenarioConfig{RunConfig: leodivide.RunConfig{Seed: cfg.seed, Scale: cfg.scale}}
	configs := make([]leodivide.ScenarioConfig, len(bodies))
	for i, b := range bodies {
		req, err := leodivide.ParseScenarioRequest(b)
		if err != nil {
			return err
		}
		if configs[i], err = req.Apply(base); err != nil {
			return err
		}
	}
	if err := timed("scenario.parse_us", "us", perCall(len(bodies)), func() error {
		for _, b := range bodies {
			if _, err := leodivide.ParseScenarioRequest(b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timed("scenario.key_us", "us", perCall(len(configs)), func() error {
		for _, c := range configs {
			if _, err := c.CanonicalKey(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	tr.finish(m)
	for _, zero := range []struct{ name, unit string }{
		{"serve.handler_ms_p50", "ms"}, {"serve.handler_ms_p99", "ms"}, {"serve.transport_ms_p50", "ms"},
		{"serve.run_ms_p50", "ms"}, {"serve.run_ms_p99", "ms"}, {"serve.admission_wait_ms_p99", "ms"},
		{"serve.hit_ratio", "ratio"}, {"serve.evictions_per_req", "count"}, {"serve.cache_mb", "MB"},
	} {
		if _, ok := m[zero.name]; !ok {
			m.set(zero.name, 0, zero.unit)
		}
	}
	return nil
}

// write dumps the run's spans as indented trees: set-up, the traced
// window, then the probes.
func (t *tracer) write(cfg config, setup *obs.RecordingCollector, logw io.Writer) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.txt", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sections := []struct {
		title string
		c     *obs.RecordingCollector
	}{{"set-up", setup}, {"traced window", t.spans}, {"layer probes", t.probeSpans}}
	for _, s := range sections {
		fmt.Fprintf(f, "# %s: %d spans\n", s.title, len(s.c.Spans()))
		if err := s.c.WriteText(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintln(logw, "leodivide-bench: spans written to", path)
	return nil
}
