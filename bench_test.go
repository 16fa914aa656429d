package leodivide

// BenchmarkRegistry times dataset generation and each registry
// experiment at two worker counts. It is a profiling aid:
//
//	go test -bench BenchmarkRegistry -run '^$' .
//	go test -bench 'BenchmarkRegistry/fig3/' -cpuprofile cpu.out -run '^$' .
//
// Nothing gates on its timings. The exact work counts are gated by
// TestWorkCounts, and end-to-end speed by the paired runs of the repo
// benchmark under _bench/ (DESIGN.md §9). The paper's numbers are
// checked by the golden corpus (`leodivide verify`).

import (
	"context"
	"fmt"
	"testing"
)

// benchRow is one measured path: bind returns the op for a model at
// one worker count.
type benchRow struct {
	name string
	bind func(m Model) func(ctx context.Context, ds *Dataset) error
}

func benchRows() []benchRow {
	rows := []benchRow{{"generate", func(m Model) func(context.Context, *Dataset) error {
		seed := int64(0)
		return func(ctx context.Context, ds *Dataset) error {
			seed++ // a fresh seed per op, as in a seed sweep
			_, err := GenerateDataset(ctx, WithSeed(ds.Seed+seed))
			return err
		}
	}}}
	for _, e := range NewModel().Experiments() {
		rows = append(rows, benchRow{e.Name, func(m Model) func(context.Context, *Dataset) error {
			e, _ := m.ExperimentByName(e.Name)
			return func(ctx context.Context, ds *Dataset) error {
				_, err := e.Run(ctx, ds)
				return err
			}
		}})
	}
	return rows
}

func BenchmarkRegistry(b *testing.B) {
	ctx := context.Background()
	ds := fullDataset(b)
	for _, row := range benchRows() {
		b.Run(row.name, func(b *testing.B) {
			for _, workers := range []int{1, 0} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					op := row.bind(NewModel().Parallelism(workers))
					// One untimed op fills the dataset's stage memo, so
					// every row times the warm path.
					if err := op(ctx, ds); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := op(ctx, ds); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
