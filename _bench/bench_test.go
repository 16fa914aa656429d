package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// smallConfig is a workload shrunk to test size: a scale-0.02 dataset,
// sub-second windows, no child set-ups and no golden pre-flight.
func smallConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg, err := newConfig(workload, 3, 300*time.Millisecond, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.scale = 0.02
	cfg.setupRuns = 0
	cfg.goldenRoot = ""
	cfg.settle = 50 * time.Millisecond
	cfg.traceDir = t.TempDir()
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricReportedWithUnit runs each workload untraced and traced
// and requires exactly the metrics BENCHMARK.json names, each with its
// declared unit.
func TestEveryMetricReportedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, _, err := runBenchmark(context.Background(), smallConfig(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%t: %s unit %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not declared in BENCHMARK.json", w, trace, name)
				}
			}
			if !trace && res.Metrics["latency_p50_ms"].Value <= 0 {
				t.Errorf("%s: latency_p50_ms = %v", w, res.Metrics["latency_p50_ms"].Value)
			}
		}
	}
}

// TestCorruptReferenceCountsAsError flips one byte of every reference
// and requires the mismatches to land in failed, so error_rate rises
// above 0.
func TestCorruptReferenceCountsAsError(t *testing.T) {
	for _, w := range workloadNames {
		cfg := smallConfig(t, w, false)
		cfg.corrupt = true
		res, _, err := runBenchmark(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
			t.Errorf("%s: corrupted reference gave correct=%t failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBrokenTrafficGuardFailsRun resizes each serve workload's result
// cache so its traffic no longer matches its definition; the run must
// fail instead of reporting.
func TestBrokenTrafficGuardFailsRun(t *testing.T) {
	for w, entries := range map[string]int{
		"serve-hit":  8,    // far below the 112-key mix: hits turn into misses
		"serve-miss": 4096, // holds the whole 480-key cycle: misses turn into hits
	} {
		cfg := smallConfig(t, w, false)
		cfg.cacheEntries = entries
		_, _, err := runBenchmark(context.Background(), cfg, io.Discard)
		var ge *guardError
		if !errors.As(err, &ge) {
			t.Errorf("%s with %d cache entries: err = %v, want a traffic-guard failure", w, entries, err)
		}
	}
}

func TestPreflightReplaysCorpus(t *testing.T) {
	if err := preflight(context.Background(), filepath.Join("..", "testdata")); err != nil {
		t.Fatal(err)
	}
	if err := preflight(context.Background(), t.TempDir()); err == nil {
		t.Fatal("an empty corpus root passed the pre-flight")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := smallConfig(t, "serve-miss", false), smallConfig(t, "serve-miss", false)
	if !reflect.DeepEqual(newServe(a, false).order, newServe(b, false).order) ||
		!reflect.DeepEqual(seedCycle(5, 8), seedCycle(5, 8)) {
		t.Fatal("one seed gave two input sets")
	}
	b.seed++
	if reflect.DeepEqual(newServe(a, false).order, newServe(b, false).order) ||
		reflect.DeepEqual(seedCycle(5, 8), seedCycle(6, 8)) {
		t.Fatal("two seeds gave one input set")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
