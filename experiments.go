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
//     (carrying the error of a failed run) when a span collector is
//     installed. The span times the kernel alone: a caller that
//     encodes the result does so after it ends.
//   - Cancellation: Run returns ctx.Err() without touching the dataset
//     when the context is already cancelled at entry; long runners
//     additionally observe cancellation between fan-out stages.

import (
	"context"
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
	// "table2"); callers type-assert it back.
	//
	// Cancellation contract (uniform across the registry): if ctx is
	// already cancelled, Run returns ctx.Err() immediately without
	// touching the dataset; runners that fan out over multiple stages
	// also observe cancellation between stages. On any error the result
	// is nil — never a partial result.
	Run func(ctx context.Context, d *Dataset) (any, error)
}

// runner is the shape of one registry entry before it is bound to a
// Model: the model travels as an argument, so the table below is built
// once and every Model shares it.
type runner func(m Model, ctx context.Context, d *Dataset) (any, error)

// instrument wraps a registry runner with the uniform cancellation
// check and the observability layer. It runs once per entry, when the
// package-level registry is built, so the instrument names and their
// get-or-create lookups are resolved before any Model exists and
// neither a run nor a registry lookup pays for them.
func instrument(name string, fn runner) runner {
	spanName := "experiment." + name
	seconds := obs.Default.Histogram(spanName+".seconds", obs.DurationBuckets)
	errorRuns := obs.Default.Counter(spanName + ".errors")
	okRuns := obs.Default.Counter(spanName + ".runs")
	return func(m Model, ctx context.Context, d *Dataset) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ctx, span := obs.StartSpan(ctx, spanName)
		//lint:ignore detrand wall-clock feeds the experiment duration histogram only, never the result
		start := time.Now()
		v, err := fn(m, ctx, d)
		seconds.ObserveSince(start)
		if err != nil {
			errorRuns.Inc()
			v = nil // the contract: no partial results
		} else {
			okRuns.Inc()
		}
		if span != nil && err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
		return v, err
	}
}

// registryEntry is one row of the registry table: a name, a
// description and the instrumented runner, not yet bound to a Model.
type registryEntry struct {
	name, description string
	run               runner
}

// bind returns the entry as an Experiment whose Run evaluates it under m.
func (e *registryEntry) bind(m Model) Experiment {
	run := e.run
	return Experiment{
		Name:        e.name,
		Description: e.description,
		Run: func(ctx context.Context, d *Dataset) (any, error) {
			return run(m, ctx, d)
		},
	}
}

func newRegistryEntry(name, description string, run runner) registryEntry {
	return registryEntry{name: name, description: description, run: instrument(name, run)}
}

// registry is the experiment table in presentation order, built and
// instrumented once at package initialization. Every runner delegates
// to the uniform (ctx, *Dataset) (Result, error) Model methods, so
// cancellation, the Parallelism knob and the observability layer apply
// uniformly.
var registry = [...]registryEntry{
	newRegistryEntry("fig1", "per-cell density distribution (Figure 1)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Fig1(ctx, d) }),
	newRegistryEntry("table1", "single-satellite capacity model (Table 1)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Table1(ctx, d) }),
	newRegistryEntry("table2", "constellation sizing vs beamspread (Table 2)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Table2(ctx, d) }),
	newRegistryEntry("fig2", "beamspread × oversubscription served fraction (Figure 2)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Fig2(ctx, d) }),
	newRegistryEntry("fig3", "diminishing returns over the demand tail (Figure 3)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Fig3(ctx, d) }),
	newRegistryEntry("fig4", "affordability at 2% of income (Figure 4)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Fig4(ctx, d) }),
	newRegistryEntry("findings", "the paper's four findings (F1–F4)",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.RunFindings(ctx, d) }),
	newRegistryEntry("fleets", "assess the authorized Gen1/Gen2 fleets against the requirement",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.AssessFleets(ctx, d) }),
	newRegistryEntry("refined", "affordability with income dispersion and Lifeline eligibility",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Fig4Refined(ctx, d) }),
	newRegistryEntry("busyhour", "diurnal demand: staggering and busy-hour throughput",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.BusyHour(ctx, d) }),
	newRegistryEntry("econ", "constellation economics: capex and per-location cost",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.Economics(ctx, d) }),
	newRegistryEntry("costcurve", "cost per served location and served fraction vs fleet size, per constellation",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.CostCurve(ctx, d) }),
	newRegistryEntry("xconst", "which constellation closes the divide cheapest under the 100/20 benchmark",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.CrossConstellation(ctx, d) }),
	newRegistryEntry("xregion", "service fraction vs affordability per demand geography: which constraint binds where",
		func(m Model, ctx context.Context, d *Dataset) (any, error) { return m.CrossRegion(ctx, d) }),
}

// lookupEntry finds a registry row by name.
func lookupEntry(name string) (*registryEntry, bool) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// Experiments returns the registry bound to m, in presentation order.
func (m Model) Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	for i := range registry {
		out[i] = registry[i].bind(m)
	}
	return out
}

// ExperimentByName looks an experiment up in the registry and binds
// only that entry to m.
func (m Model) ExperimentByName(name string) (Experiment, bool) {
	e, ok := lookupEntry(name)
	if !ok {
		return Experiment{}, false
	}
	return e.bind(m), true
}
