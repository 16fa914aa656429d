package leodivide

// The root golden tests replay and regenerate the corpora golden.go
// declares, through its walk and its completeness check.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"leodivide/internal/golden"
	"leodivide/internal/region"
)

var update = flag.Bool("update", false, "rewrite the golden corpus from the current implementation")

// TestGoldenToleranceBusyHourExact: one ulp on an exact busyhour field
// is drift, while the summed stagger ratios keep the 1e-9 default.
func TestGoldenToleranceBusyHourExact(t *testing.T) {
	want, err := golden.ReadFile(golden.File(GoldenRoot, 1, 0.02, "busyhour"))
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

// testGolden replays each corpus at the committed matrix, one subtest
// per configuration with one subtest per experiment below it; with
// -update it rewrites each frozen file instead.
func testGolden(t *testing.T, corpora []goldenCorpus) {
	if testing.Short() {
		t.Skip("golden corpus replay is not a -short test")
	}
	ctx := context.Background()
	for _, c := range corpora {
		for _, cfg := range goldenMatrix {
			name := fmt.Sprintf("seed=%d/scale=%s", cfg.Seed, golden.FormatScale(cfg.Scale))
			if c.region != region.DefaultKey {
				name = c.region + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				err := c.replay(ctx, cfg, 0, func(exp string, v any) error {
					t.Run(exp, func(t *testing.T) {
						if *update {
							if err := golden.WriteFile(ctx, golden.File(c.root, cfg.Seed, cfg.Scale, exp), v); err != nil {
								t.Fatalf("update corpus: %v", err)
							}
							return
						}
						var diffs strings.Builder
						drifted, err := c.check(&diffs, cfg, exp, v)
						if err != nil {
							t.Fatalf("%v\n(run `go test -run TestGolden -update .` to create the corpus)", err)
						}
						if drifted {
							t.Fatalf("%s(if the change is intentional, regenerate with -update and justify the corpus diff)", diffs.String())
						}
					})
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGoldenCorpus(t *testing.T) { testGolden(t, goldenCorpora(GoldenRoot, "")) }

// TestGoldenRegionCorpus replays findings per synthetic region: the
// one-page summary exercises the full pipeline (capacity, sizing,
// affordability) on each geography, so drift in any synthetic
// generation step or region dispatch shows here with a field path.
func TestGoldenRegionCorpus(t *testing.T) {
	testGolden(t, goldenCorpora(GoldenRoot, GoldenRegionRoot)[1:])
}

// TestGoldenCorpusCoversRegistry pins the committed corpora through the
// completeness check `leodivide verify` runs first: every configuration
// holds exactly one file per registry experiment (findings per region),
// the region corpus exactly one directory per declared region, and each
// corpus exactly the configurations of the replay matrix.
func TestGoldenCorpusCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("corpus being rewritten")
	}
	corpora, err := loadGoldenCorpora(GoldenRoot, GoldenRegionRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		got := make([]golden.Config, len(c.configs))
		for i, cfg := range c.configs {
			got[i] = golden.Config{Seed: cfg.Seed, Scale: cfg.Scale}
		}
		if !slices.Equal(got, goldenMatrix) {
			t.Errorf("corpus %s holds %v, the replay matrix is %v — regenerate with -update", c.root, got, goldenMatrix)
		}
	}
}
