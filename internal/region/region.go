// Package region makes the demand geography pluggable: a Region yields
// hexgrid demand cells, per-cell location counts and an income
// distribution, and the root facade's GenerateDataset consumes that
// output instead of calling the BDC/census pipeline directly.
//
// Three regions are declared:
//
//   - "us" wraps the existing calibrated BDC + census pipeline and is
//     byte-identical to the legacy generation path (the golden corpus
//     proves it).
//   - "brazil-rural" is a deterministic seeded synthetic geography: a
//     sparse equatorial-to-mid-latitude demand band in the style of
//     Brazil's rural-connectivity roadmap.
//   - "taipei-dense" is a compact high-density urban geography where
//     the per-cell beam-stacking cap binds long before affordability.
//
// The determinism contract of the repository applies unchanged: every
// region's output is a pure function of (seed, scale), whatever
// GenConfig.Parallelism is. Synthetic regions draw all randomness from
// a single rand.New(rand.NewSource(seed)) stream consumed serially in a
// fixed order, mirroring the BDC generator's idiom; only RNG-free work
// fans out, each task writing its own slots: the grid enumeration, once
// per process, collected in canonical face order, and per seed the
// distribution beside the income table.
//
// Every region joins demand to incomes the same way. While it emits
// the cells, a generator knows each cell's area (a US county, a
// synthetic district) as an index into the region's area list, whose
// codes ascend: the cells keep that index as their area column, and
// the generator sums the area's locations there; areaIncomes turns
// those sums into the income table.
package region

import (
	"context"
	"fmt"
	"math"
	"slices"

	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/hexgrid"
	"leodivide/internal/par"
)

// GenConfig is the per-generation parameter set every Region receives:
// the dataset identity (seed, scale).
type GenConfig struct {
	// Seed drives all pseudo-randomness; equal seeds give identical
	// outputs.
	Seed int64
	// Scale shrinks the region to this fraction of its declared total,
	// in (0, 1]. Peak cells scale too, so distribution shape is
	// preserved.
	Scale float64
	// Parallelism bounds the workers of generation's RNG-free stages:
	// 0 = one per CPU, 1 = serial on the calling goroutine. It never
	// changes the output.
	Parallelism int
}

// Validate reports whether the generation parameters are usable.
func (g GenConfig) Validate() error {
	if math.IsNaN(g.Scale) || math.IsInf(g.Scale, 0) || g.Scale <= 0 || g.Scale > 1 {
		return fmt.Errorf("region: scale must be in (0,1], got %v", g.Scale)
	}
	return nil
}

// Output is what a region yields: the demand cells, their prebuilt
// distribution, the income table weighted by location counts, and the
// grid resolution the cells live on. Dist is always non-nil and built
// from exactly Cells, so consumers need not rebuild it.
type Output struct {
	Cells      demand.Cells
	Dist       *demand.Distribution
	Incomes    *census.Table
	Resolution hexgrid.Resolution
}

// distAndIncomes builds the distribution of cells and the table
// incomes returns side by side, on up to workers goroutines
// (par.Map; 1 runs them in turn on the calling goroutine). A
// distribution error outranks an income error.
func distAndIncomes(ctx context.Context, workers int, cells demand.Cells,
	incomes func() (*census.Table, error)) (*demand.Distribution, *census.Table, error) {
	type stage struct {
		dist    *demand.Distribution
		incomes *census.Table
	}
	out, err := par.Map(ctx, workers, 2, func(i int) (stage, error) {
		if i == 0 {
			dist, err := demand.NewDistribution(cells)
			return stage{dist: dist}, err
		}
		t, err := incomes()
		return stage{incomes: t}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return out[0].dist, out[1].incomes, nil
}

// Region is one pluggable demand/income geography.
type Region interface {
	// Key is the canonical lowercase identifier used in scenario
	// selectors, canonical cache keys and the serving API.
	Key() string
	// Name is the human-readable display name.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Generate synthesizes the region's dataset. The seed and scale
	// fully determine the result.
	Generate(ctx context.Context, cfg GenConfig) (Output, error)
}

// DefaultKey is the canonical key of the default region.
const DefaultKey = "us"

// declared is the region table in canonical order, with the default
// (the calibrated US pipeline) first. It is built once, at package
// initialization, which also validates the synthetic specs. The
// entries are shared by every lookup: a Region is an immutable value,
// and no Region method writes through its spec or anchor slices.
var declared = [...]Region{US(), BrazilRural(), TaipeiDense()}

// Regions returns the declared regions in canonical order, in a fresh
// slice the caller owns. The first entry is the default.
func Regions() []Region {
	return slices.Clone(declared[:])
}

// Names returns the canonical keys of the declared regions, in
// canonical order.
func Names() []string {
	names := make([]string, len(declared))
	for i, r := range declared {
		names[i] = r.Key()
	}
	return names
}

// ByName resolves a canonical key to its declared region.
func ByName(name string) (Region, bool) {
	for _, r := range declared {
		if r.Key() == name {
			return r, true
		}
	}
	return nil, false
}
