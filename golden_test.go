package leodivide

// The golden-corpus regression gate. Every registered experiment's
// result is frozen as canonical JSON under testdata/golden/<seed>/<scale>/
// and replayed here at two seeds × two scales. Any semantic drift — a
// refactor that changes Table 2 sizing, a calibration constant nudged,
// a parallel fan-out that reorders a reduction — fails with a
// field-level path naming the experiment and value.
//
// Regenerate after an intentional model change with:
//
//	go test -run TestGoldenCorpus -update ./...
//
// and review the corpus diff like any other code change: the diff IS
// the semantic change, and it must be justified against the paper's
// anchors in the PR description.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"testing"

	"leodivide/internal/golden"
)

var update = flag.Bool("update", false, "rewrite the golden corpus from the current implementation")

// goldenRoot is the committed corpus location, shared with the
// `leodivide verify` subcommand.
const goldenRoot = "testdata/golden"

// goldenConfigs is the replay matrix: two seeds × two scales. The
// scales are small enough that the full 11-experiment replay stays in
// CI seconds, and two seeds are enough to catch seed-dependent drift
// (a constant folded wrongly shows at every seed; a generation change
// shows differently per seed).
func goldenConfigs() []golden.Config {
	var cfgs []golden.Config
	for _, seed := range []int64{1, 2} {
		for _, scale := range []float64{0.02, 0.05} {
			cfgs = append(cfgs, golden.Config{Seed: seed, Scale: scale})
		}
	}
	return cfgs
}

// goldenTolerance is the corpus comparison policy for one experiment.
// The default 1e-9 relative tolerance absorbs last-ulp float
// differences across Go toolchain versions while still pinning every
// anchor to nine significant digits; integer fields (satellite counts,
// cell maxima, location totals) compare exactly because their JSON
// encodings are string-identical.
//
// busyhour's diurnal-profile facts are exact on top of that: the peak
// hour, the peak factor and the single-cell peak-to-mean ratio come
// from the calibrated profile alone, so no kernel change may move them
// by even an ulp. Its footprint and national ratios come from summed
// curves and keep the default.
func goldenTolerance(experiment string) golden.Tolerance {
	tol := golden.Default()
	if experiment == "busyhour" {
		for _, path := range []string{"/PeakHourLocal", "/PeakFactor", "/Stagger/CellPeakToMean"} {
			tol.Rules = append(tol.Rules, golden.Rule{Path: path}) // zero Rel and Abs: exact
		}
	}
	return tol
}

// TestGoldenToleranceBusyHourExact: one ulp on an exact busyhour field
// is drift, while the summed stagger ratios keep the 1e-9 default.
func TestGoldenToleranceBusyHourExact(t *testing.T) {
	want, err := golden.ReadFile(golden.File(goldenRoot, 1, 0.02, "busyhour"))
	if err != nil {
		t.Fatal(err)
	}
	var base BusyHourResult
	if err := json.Unmarshal(want, &base); err != nil {
		t.Fatal(err)
	}
	nudge := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	cases := []struct {
		name  string
		edit  func(*BusyHourResult)
		drift bool
	}{
		{"PeakFactor", func(r *BusyHourResult) { r.PeakFactor = nudge(r.PeakFactor) }, true},
		{"CellPeakToMean", func(r *BusyHourResult) { r.Stagger.CellPeakToMean = nudge(r.Stagger.CellPeakToMean) }, true},
		{"PeakHourLocal", func(r *BusyHourResult) { r.PeakHourLocal++ }, true},
		{"FootprintPeakToMean", func(r *BusyHourResult) { r.Stagger.FootprintPeakToMean *= 1 + 1e-12 }, false},
		{"NationalPeakToMean", func(r *BusyHourResult) { r.Stagger.NationalPeakToMean *= 1 + 1e-12 }, false},
	}
	for _, c := range cases {
		r := base
		c.edit(&r)
		got, err := golden.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		diffs, err := golden.Compare(got, want, goldenTolerance("busyhour"))
		if err != nil {
			t.Fatal(err)
		}
		if drift := len(diffs) > 0; drift != c.drift {
			t.Errorf("%s: drift = %v, want %v (%v)", c.name, drift, c.drift, diffs)
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus replay is not a -short test")
	}
	ctx := context.Background()
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d/scale=%s", cfg.Seed, golden.FormatScale(cfg.Scale)), func(t *testing.T) {
			rc := DefaultRunConfig()
			rc.Seed = cfg.Seed
			rc.Scale = cfg.Scale
			sc := ScenarioConfig{RunConfig: rc}
			ds, err := sc.Generate(ctx)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			m := sc.BuildModel()
			for _, exp := range m.Experiments() {
				exp := exp
				t.Run(exp.Name, func(t *testing.T) {
					v, err := exp.Run(ctx, ds)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					path := golden.File(goldenRoot, cfg.Seed, cfg.Scale, exp.Name)
					if *update {
						if err := golden.WriteFile(ctx, path, v); err != nil {
							t.Fatalf("update corpus: %v", err)
						}
						return
					}
					want, err := golden.ReadFile(path)
					if err != nil {
						t.Fatalf("read corpus %s: %v\n(run `go test -run TestGoldenCorpus -update ./...` to create it)", path, err)
					}
					got, err := golden.Encode(v)
					if err != nil {
						t.Fatalf("encode result: %v", err)
					}
					diffs, err := golden.Compare(got, want, goldenTolerance(exp.Name))
					if err != nil {
						t.Fatalf("compare against %s: %v", path, err)
					}
					for i, d := range diffs {
						if i >= 10 {
							t.Errorf("... and %d more field diffs", len(diffs)-i)
							break
						}
						t.Errorf("%s drifted at %s", exp.Name, d)
					}
					if len(diffs) > 0 {
						t.Fatalf("%s: %d field(s) drifted from %s\n(if the change is intentional, regenerate with -update and justify the corpus diff)", exp.Name, len(diffs), path)
					}
				})
			}
		})
	}
}

// goldenRegionRoot holds the per-region findings corpus: one root per
// synthetic region (golden.Configs wants integer seed directories
// directly under its root), each replayed at the same seed × scale
// matrix as the main corpus. The US region needs no entry here — the
// main corpus already freezes every experiment on the US geography.
const goldenRegionRoot = "testdata/golden-regions"

// goldenRegionKeys are the synthetic geographies with frozen findings.
func goldenRegionKeys() []string { return []string{"brazil-rural", "taipei-dense"} }

// TestGoldenRegionCorpus freezes the findings experiment per synthetic
// region: the one-page summary exercises the full pipeline (capacity,
// sizing, affordability) on each geography, so drift in any synthetic
// generation step or region dispatch shows here with a field path.
func TestGoldenRegionCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus replay is not a -short test")
	}
	ctx := context.Background()
	for _, key := range goldenRegionKeys() {
		key := key
		for _, cfg := range goldenConfigs() {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/seed=%d/scale=%s", key, cfg.Seed, golden.FormatScale(cfg.Scale)), func(t *testing.T) {
				ds, err := GenerateDataset(ctx,
					WithSeed(cfg.Seed), WithScale(cfg.Scale), WithRegion(key))
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				m := NewModel()
				exp, ok := m.ExperimentByName("findings")
				if !ok {
					t.Fatal("findings experiment not in registry")
				}
				v, err := exp.Run(ctx, ds)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				path := golden.File(goldenRegionRoot+"/"+key, cfg.Seed, cfg.Scale, "findings")
				if *update {
					if err := golden.WriteFile(ctx, path, v); err != nil {
						t.Fatalf("update corpus: %v", err)
					}
					return
				}
				want, err := golden.ReadFile(path)
				if err != nil {
					t.Fatalf("read corpus %s: %v\n(run `go test -run TestGoldenRegionCorpus -update ./...` to create it)", path, err)
				}
				got, err := golden.Encode(v)
				if err != nil {
					t.Fatalf("encode result: %v", err)
				}
				diffs, err := golden.Compare(got, want, goldenTolerance("findings"))
				if err != nil {
					t.Fatalf("compare against %s: %v", path, err)
				}
				for i, d := range diffs {
					if i >= 10 {
						t.Errorf("... and %d more field diffs", len(diffs)-i)
						break
					}
					t.Errorf("findings drifted at %s", d)
				}
				if len(diffs) > 0 {
					t.Fatalf("findings on %s: %d field(s) drifted from %s\n(if the change is intentional, regenerate with -update and justify the corpus diff)", key, len(diffs), path)
				}
			})
		}
	}
}

// TestGoldenCorpusCoversRegistry pins the corpus to the registry: every
// experiment must have a frozen file in every committed config, and the
// corpus must not carry files for experiments that no longer exist.
// This is what makes `leodivide verify` a complete gate rather than a
// best-effort one.
func TestGoldenCorpusCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("corpus being rewritten")
	}
	cfgs, err := golden.Configs(goldenRoot)
	if err != nil {
		t.Fatalf("enumerate corpus: %v", err)
	}
	if len(cfgs) != len(goldenConfigs()) {
		t.Fatalf("corpus has %d configs, test matrix has %d — regenerate with -update", len(cfgs), len(goldenConfigs()))
	}
	registry := NewModel().Experiments()
	for _, cfg := range cfgs {
		names, err := golden.Experiments(cfg.Dir)
		if err != nil {
			t.Fatalf("enumerate %s: %v", cfg.Dir, err)
		}
		have := make(map[string]bool, len(names))
		for _, n := range names {
			have[n] = true
		}
		for _, exp := range registry {
			if !have[exp.Name] {
				t.Errorf("corpus %s missing experiment %q — regenerate with -update", cfg.Dir, exp.Name)
			}
			delete(have, exp.Name)
		}
		for n := range have {
			t.Errorf("corpus %s has file for unknown experiment %q — delete it", cfg.Dir, n)
		}
	}
}
