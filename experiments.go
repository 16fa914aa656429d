package leodivide

// The experiment registry: one authoritative list of every runner the
// facade exposes, so the CLI, library consumers and documentation can
// enumerate the same set and none can drift. Each entry wraps a typed
// Model method in the uniform (ctx, *Dataset) (any, error) shape; the
// typed methods remain the primary API for programmatic use.
//
// Every entry passes through instrument, which gives the whole
// registry two uniform properties:
//
//   - Observability: per-experiment run/error counters and duration
//     histograms in obs.Default, plus an "experiment.<name>" span
//     (carrying the JSON-encoded result size) when a span collector is
//     installed.
//   - Cancellation: Run returns ctx.Err() without touching the dataset
//     when the context is already cancelled at entry; long runners
//     additionally observe cancellation between fan-out stages.

import (
	"context"
	"encoding/json"
	"time"

	"leodivide/internal/obs"
)

// Experiment is one named, runnable experiment of the pipeline.
type Experiment struct {
	// Name is the registry key, matching the CLI subcommand.
	Name string
	// Description is a one-line summary shown by `leodivide experiments`.
	Description string
	// Run evaluates the experiment. The concrete result type is the
	// corresponding Model method's result (e.g. Table2Result for
	// "table2"); RunAs recovers it with type safety.
	//
	// Cancellation contract (uniform across the registry): if ctx is
	// already cancelled, Run returns ctx.Err() immediately without
	// touching the dataset; runners that fan out over multiple stages
	// also observe cancellation between stages. On any error the result
	// is nil — never a partial result.
	Run func(ctx context.Context, d *Dataset) (any, error)
}

// instrument wraps a registry runner with the uniform cancellation
// check and the observability layer. The instrument names and their
// get-or-create lookups are resolved once at wrap time, so a run — the
// unit the bench harness times — pays no name formatting or registry
// lookups of its own.
func instrument(name string, fn func(ctx context.Context, d *Dataset) (any, error)) func(ctx context.Context, d *Dataset) (any, error) {
	spanName := "experiment." + name
	seconds := obs.Default.Histogram(spanName+".seconds", obs.DurationBuckets)
	errorRuns := obs.Default.Counter(spanName + ".errors")
	okRuns := obs.Default.Counter(spanName + ".runs")
	return func(ctx context.Context, d *Dataset) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ctx, span := obs.StartSpan(ctx, spanName)
		//lint:ignore detrand wall-clock feeds the experiment duration histogram only, never the result
		start := time.Now()
		v, err := fn(ctx, d)
		seconds.ObserveSince(start)
		if err != nil {
			errorRuns.Inc()
			v = nil // the contract: no partial results
		} else {
			okRuns.Inc()
		}
		if span != nil {
			if err != nil {
				span.SetAttr(obs.String("error", err.Error()))
			} else {
				span.SetAttr(obs.Int("result_bytes", resultBytes(v)))
			}
		}
		span.End()
		return v, err
	}
}

// resultBytes measures a result's JSON-encoded size without buffering
// it. Only called when a span collector is installed, so the encoding
// cost is opt-in.
func resultBytes(v any) int64 {
	var cw countingDiscard
	if err := json.NewEncoder(&cw).Encode(v); err != nil {
		return -1
	}
	return cw.n
}

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Experiments returns the registry of the model's experiment runners in
// presentation order. Every entry delegates to the uniform
// (ctx, *Dataset) (Result, error) methods, so cancellation, the
// Parallelism knob and the observability layer apply uniformly.
func (m Model) Experiments() []Experiment {
	return []Experiment{
		{
			Name:        "fig1",
			Description: "per-cell density distribution (Figure 1)",
			Run: instrument("fig1", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Fig1(ctx, d)
			}),
		},
		{
			Name:        "table1",
			Description: "single-satellite capacity model (Table 1)",
			Run: instrument("table1", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Table1(ctx, d)
			}),
		},
		{
			Name:        "table2",
			Description: "constellation sizing vs beamspread (Table 2)",
			Run: instrument("table2", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Table2(ctx, d)
			}),
		},
		{
			Name:        "fig2",
			Description: "beamspread × oversubscription served fraction (Figure 2)",
			Run: instrument("fig2", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Fig2(ctx, d)
			}),
		},
		{
			Name:        "fig3",
			Description: "diminishing returns over the demand tail (Figure 3)",
			Run: instrument("fig3", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Fig3(ctx, d)
			}),
		},
		{
			Name:        "fig4",
			Description: "affordability at 2% of income (Figure 4)",
			Run: instrument("fig4", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Fig4(ctx, d)
			}),
		},
		{
			Name:        "findings",
			Description: "the paper's four findings (F1–F4)",
			Run: instrument("findings", func(ctx context.Context, d *Dataset) (any, error) {
				return m.RunFindings(ctx, d)
			}),
		},
		{
			Name:        "fleets",
			Description: "assess the authorized Gen1/Gen2 fleets against the requirement",
			Run: instrument("fleets", func(ctx context.Context, d *Dataset) (any, error) {
				return m.AssessFleets(ctx, d)
			}),
		},
		{
			Name:        "refined",
			Description: "affordability with income dispersion and Lifeline eligibility",
			Run: instrument("refined", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Fig4Refined(ctx, d, 0, 3)
			}),
		},
		{
			Name:        "busyhour",
			Description: "diurnal demand: staggering and busy-hour throughput",
			Run: instrument("busyhour", func(ctx context.Context, d *Dataset) (any, error) {
				return m.BusyHour(ctx, d)
			}),
		},
		{
			Name:        "econ",
			Description: "constellation economics: capex and per-location cost",
			Run: instrument("econ", func(ctx context.Context, d *Dataset) (any, error) {
				return m.Economics(ctx, d)
			}),
		},
		{
			Name:        "costcurve",
			Description: "cost per served location and served fraction vs fleet size, per constellation",
			Run: instrument("costcurve", func(ctx context.Context, d *Dataset) (any, error) {
				return m.CostCurve(ctx, d)
			}),
		},
		{
			Name:        "xconst",
			Description: "which constellation closes the divide cheapest under the 100/20 benchmark",
			Run: instrument("xconst", func(ctx context.Context, d *Dataset) (any, error) {
				return m.CrossConstellation(ctx, d)
			}),
		},
		{
			Name:        "xregion",
			Description: "service fraction vs affordability per demand geography: which constraint binds where",
			Run: instrument("xregion", func(ctx context.Context, d *Dataset) (any, error) {
				return m.CrossRegion(ctx, d)
			}),
		},
	}
}

// ExperimentByName looks an experiment up in the registry.
func (m Model) ExperimentByName(name string) (Experiment, bool) {
	for _, e := range m.Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
