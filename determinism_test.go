package leodivide

// The determinism suite: the contract of the parallel engine is that
// every artifact is byte-identical at every worker count. The
// experiment half of the suite is the serial ≡ parallel differential
// oracle (testutil.RequireDeterministic): every registry experiment is
// replayed at a seed × parallelism matrix, with Parallelism(1) (exact
// serial) as the reference semantics and byte equality of the canonical
// golden encoding as the comparison — stronger than reflect.DeepEqual,
// because it also pins the serialized form the golden corpus and the
// observability layer see.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"leodivide/internal/region"
	"leodivide/internal/testutil"
)

// determinismCounts is the worker-count matrix: 1 is the serial
// reference; 2 and 3 exercise partial pools (work split unevenly across
// workers); 8 oversubscribes the CI container's CPUs so queue-order
// effects would surface if any reduction depended on completion order.
var determinismCounts = []int{1, 2, 3, 8}

// TestRegistryDeterminismMatrix replays every registry experiment at
// every seed × parallelism combination and requires byte-identical
// results against the serial reference.
func TestRegistryDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry matrix is not a -short test")
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// One dataset per (seed, parallelism): the dataset build is
			// itself part of the differential, so each worker count
			// runs on its own repeated generation rather than sharing
			// the reference's.
			datasets := make(map[int]*Dataset, len(determinismCounts))
			for _, n := range determinismCounts {
				ds, err := ScenarioConfig{RunConfig: RunConfig{Seed: seed, Scale: 0.05, Parallelism: n}}.Generate(ctx)
				if err != nil {
					t.Fatalf("generate parallelism=%d: %v", n, err)
				}
				datasets[n] = ds
			}
			for _, exp := range NewModel().Experiments() {
				exp := exp
				t.Run(exp.Name, func(t *testing.T) {
					testutil.RequireDeterministic(t, exp.Name, determinismCounts,
						func(parallelism int) (any, error) {
							m := NewModel().Parallelism(parallelism)
							e, ok := m.ExperimentByName(exp.Name)
							if !ok {
								return nil, fmt.Errorf("experiment %q not in registry", exp.Name)
							}
							return e.Run(ctx, datasets[parallelism])
						})
				})
			}
		})
	}
}

// TestGenerateDatasetDeterministicAcrossParallelism proves dataset
// synthesis is the same at every worker bound for every declared
// region: identical cells (IDs, locations, county assignment, centers)
// and identical county income tables from ScenarioConfig.Generate at
// Parallelism 1 (the serial reference), 2, 4 and 0 (one worker per
// CPU), for several seeds. The center fill and the distribution built
// beside the incomes fan out on that bound; the grid tables behind
// them are built once per process on every CPU, collected in
// canonical order.
func TestGenerateDatasetDeterministicAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	for _, regionKey := range []string{"us", "brazil-rural", "taipei-dense"} {
		t.Run(regionKey, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				generate := func(parallelism int) *Dataset {
					t.Helper()
					sc := ScenarioConfig{RunConfig: RunConfig{Seed: seed, Scale: 0.05, Parallelism: parallelism}, Region: regionKey}
					ds, err := sc.Generate(ctx)
					if err != nil {
						t.Fatalf("seed %d parallelism %d: %v", seed, parallelism, err)
					}
					return ds
				}
				serial := generate(1)
				for _, n := range []int{2, 4, 0} {
					ds := generate(n)
					if !reflect.DeepEqual(serial.Cells, ds.Cells) {
						t.Fatalf("seed %d: cells at parallelism %d differ from the serial cells", seed, n)
					}
					if !reflect.DeepEqual(serial.Incomes.Counties(), ds.Incomes.Counties()) {
						t.Fatalf("seed %d: county income tables at parallelism %d differ from the serial table", seed, n)
					}
				}
			}
		})
	}
}

// TestGenerateDatasetCancellation: a pre-cancelled context aborts
// generation with context.Canceled instead of returning a dataset, in
// every region, even once a first generation has warmed the
// process-wide caches that never consult ctx.
func TestGenerateDatasetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range region.Names() {
		if _, err := GenerateDataset(context.Background(), WithRegion(name), WithScale(0.02)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := GenerateDataset(ctx, WithRegion(name), WithScale(0.02)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v from a cancelled context, want context.Canceled", name, err)
		}
	}
}
