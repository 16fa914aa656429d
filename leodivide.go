// Package leodivide reproduces the analysis of "Anyone, Anywhere, not
// Everyone, Everywhere: Starlink Doesn't End the Digital Divide"
// (HotNets 2025): an analytical model coupling the peak demand density
// of un(der)served US broadband locations with the physical and
// regulatory limits of LEO access networks, plus the companion
// affordability analysis.
//
// The package is the public facade over the internal substrates
// (geodesy, geospatial grid, orbits, spectrum, beams, demand, synthetic
// datasets, affordability). A typical session:
//
//	ctx := context.Background()
//	ds, err := leodivide.GenerateDataset(ctx)     // synthetic national map
//	m := leodivide.NewModel()
//	t1, err := m.Table1(ctx, ds)                  // single-satellite capacity
//	t2, err := m.Table2(ctx, ds)                  // constellation sizing
//	f4, err := m.Fig4(ctx, ds)                    // affordability
//
// Every experiment runner shares the (ctx, *Dataset) (Result, error)
// shape, is enumerable through Model.Experiments, and fans out over
// Model.Parallelism workers with output identical to the serial path.
// Each runner corresponds to a table or figure of the paper; see
// EXPERIMENTS.md for the paper-vs-measured record.
package leodivide

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"leodivide/internal/afford"
	"leodivide/internal/census"
	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/region"
	"leodivide/internal/spectrum"
	"leodivide/internal/stats"
)

// Facade-level observability (see internal/obs): dataset generation
// counts and stage durations. Experiment-level instruments are attached
// per registry entry in experiments.go.
var (
	metricDatasets = obs.Default.Counter("gen.datasets")
	metricGenSecs  = obs.Default.Histogram("gen.dataset.seconds", obs.DurationBuckets)
	gaugeCells     = obs.Default.Gauge("gen.cells")
)

// Dataset is a synthetic national broadband dataset: per-cell
// un(der)served location counts plus county median incomes, calibrated
// to the paper's published statistics.
type Dataset struct {
	// Cells are the demand cells (service-grid cells with at least one
	// un(der)served location) in ascending ID order, as pointer-free
	// columns that no method writes; Cells.At reads a whole cell. The
	// dataset's distribution indexes the same columns.
	Cells demand.Cells
	// Incomes is the county income table, weighted by location counts.
	Incomes *census.Table
	// Resolution is the service-cell grid resolution.
	Resolution hexgrid.Resolution
	// Seed reproduces the dataset (together with Region and Scale).
	Seed int64
	// Region is the canonical key of the geography that generated the
	// dataset ("us" for the calibrated national map).
	Region string
	// Scale is the fraction of the region's declared total the dataset
	// was generated at, in (0, 1].
	Scale float64

	dist *demand.Distribution
}

// Option adjusts dataset generation.
type Option func(*genOptions)

type genOptions struct {
	seed   int64
	scale  float64
	region string
	// parallelism bounds generation's workers (region.GenConfig). No
	// Option sets it: GenerateDataset uses one worker per CPU, and a
	// ScenarioConfig or Model passes its own Parallelism.
	parallelism int
}

// WithSeed sets the generation seed (default 1).
func WithSeed(seed int64) Option {
	return func(o *genOptions) { o.seed = seed }
}

// WithScale shrinks the dataset to the given fraction of the national
// total (default 1.0). Peak cells scale too, so distribution shape is
// preserved; headline counts scale proportionally.
func WithScale(scale float64) Option {
	return func(o *genOptions) { o.scale = scale }
}

// WithRegion selects the demand/income geography by canonical key
// (default region.DefaultKey, the calibrated US pipeline). See
// internal/region for the shipped set.
func WithRegion(key string) Option {
	return func(o *genOptions) { o.region = key }
}

// GenerateDataset synthesizes a dataset for the selected region
// (default the calibrated US national map), with one worker per CPU on
// generation's RNG-free stages. The context cancels generation early;
// the (seed, region, scale) triple fully determines the result.
func GenerateDataset(ctx context.Context, opts ...Option) (*Dataset, error) {
	o := genOptions{seed: 1, scale: 1, region: region.DefaultKey}
	for _, opt := range opts {
		opt(&o)
	}
	return generateDataset(ctx, o)
}

// generateDataset is GenerateDataset over resolved options, the
// worker bound included.
func generateDataset(ctx context.Context, o genOptions) (*Dataset, error) {
	//lint:ignore detrand wall-clock feeds the generate_dataset duration metric only, never the dataset
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "generate_dataset")
	defer span.End()
	// Stages served from process-wide caches never consult ctx, so an
	// already-cancelled generation must fail here rather than succeed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, ok := region.ByName(o.region)
	if !ok {
		return nil, fmt.Errorf("leodivide: unknown region %q (valid: %s)",
			o.region, strings.Join(region.Names(), ", "))
	}
	// The region validates the scale (finite, in (0,1]) before it
	// generates anything.
	out, err := r.Generate(ctx, region.GenConfig{Seed: o.seed, Scale: o.scale, Parallelism: o.parallelism})
	if err != nil {
		return nil, err
	}
	metricDatasets.Inc()
	metricGenSecs.ObserveSince(start)
	gaugeCells.Set(float64(out.Cells.Len()))
	if span != nil {
		span.SetAttr(obs.Int("cells", int64(out.Cells.Len())),
			obs.Int("seed", o.seed))
	}
	return &Dataset{
		Cells:      out.Cells,
		Incomes:    out.Incomes,
		Resolution: out.Resolution,
		Seed:       o.seed,
		Region:     o.region,
		Scale:      o.scale,
		dist:       out.Dist,
	}, nil
}

// Distribution returns the per-cell demand distribution.
func (d *Dataset) Distribution() *demand.Distribution { return d.dist }

// TotalLocations returns the national un(der)served location count.
func (d *Dataset) TotalLocations() int { return d.dist.TotalLocations() }

// NumCells returns the number of demand cells.
func (d *Dataset) NumCells() int { return d.dist.NumCells() }

// Model is the public capacity-and-affordability model.
type Model struct {
	// System is the constellation spec the model analyzes (default
	// Starlink Gen1). Capacity is derived from it at construction;
	// the cross-constellation experiments (costcurve, xconst) also use
	// it to identify the active system whose scenario cost overrides
	// apply. Obtain coherent pairs from NewModelFor rather than
	// writing the field directly.
	System constellation.System
	// Capacity is the underlying capacity model, derived from System;
	// change it only through Calibrated and Parallelism.
	Capacity core.Model
	// AffordShare is the affordability threshold as a share of monthly
	// income (default 2%).
	AffordShare float64
	// MaxOversub is the acceptable oversubscription cap (default the
	// FCC fixed-wireless 20:1).
	MaxOversub float64
	// Fig3Spreads selects the beamspread factors Fig3 evaluates
	// (nil = PaperTable2Spreads). It is the ScenarioConfig Spreads
	// knob, so the serving layer can sweep it.
	Fig3Spreads []float64
	// PlanFilter restricts Fig4's plan comparison to the named plan
	// labels (nil = the paper's full comparison). Unknown labels are a
	// run-time error naming the valid set.
	PlanFilter []string
}

// Parallelism returns a copy of the model whose experiment runners fan
// out over at most n workers (0 = one per CPU, 1 = the exact serial
// path). Every runner's output is identical at every setting; the knob
// only changes wall-clock time.
//
// The knob lives in Capacity.Parallelism, which bounds both the
// capacity model's sweeps and the facade's fan-outs (Fig3 curves, Fig4
// plan curves, the per-system costcurve and xconst rows, and xregion's
// sibling generations). Dataset generation takes its worker
// bound from RunConfig.Parallelism, which ScenarioConfig.Generate
// passes to the region, not from the model.
func (m Model) Parallelism(n int) Model {
	m.Capacity.Parallelism = n
	return m
}

// NewModel returns the model with the paper's parameters: the Starlink
// spec viewed through NewModelFor.
func NewModel() Model {
	return NewModelFor(constellation.StarlinkSystem())
}

// NewModelFor returns the model for a constellation spec: the system's
// capacity model plus the paper's affordability share and
// oversubscription cap (the FCC benchmarks apply to every system).
func NewModelFor(sys constellation.System) Model {
	return Model{
		System:      sys,
		Capacity:    core.NewModelFor(sys),
		AffordShare: afford.DefaultAffordabilityShare,
		MaxOversub:  spectrum.FCCFixedWirelessOversubscription,
	}
}

// Calibrated returns a copy whose constellation sizing is pinned to the
// paper's fitted effective cell count (for like-for-like Table 2
// comparisons).
func (m Model) Calibrated() Model {
	m.Capacity = m.Capacity.Calibrated()
	return m
}

// Fig1Result is the per-cell density distribution of Figure 1.
type Fig1Result struct {
	Summary    stats.Summary
	MaxCell    int
	P90, P99   int
	TotalCells int
	TotalLocs  int
	// CDF is the cumulative distribution sampled for plotting.
	CDF []stats.Point
	// Gini quantifies the demand concentration driving the paper's P2:
	// how unevenly locations spread over cells.
	Gini float64
	// Lorenz is the matching Lorenz curve.
	Lorenz []stats.Point
}

// Fig1 computes the Figure 1 distribution.
func (m Model) Fig1(ctx context.Context, d *Dataset) (Fig1Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig1Result{}, err
	}
	dist := d.Distribution()
	sum, err := dist.Summary()
	if err != nil {
		return Fig1Result{}, err
	}
	// The CDF's column holds every cell's location count, sorted.
	cdf := dist.CDF()
	gini, err := cdf.Gini()
	if err != nil {
		return Fig1Result{}, err
	}
	lorenz, err := cdf.Lorenz(100)
	if err != nil {
		return Fig1Result{}, err
	}
	return Fig1Result{
		Summary:    sum,
		MaxCell:    dist.Peak().Locations,
		P90:        dist.Quantile(0.90),
		P99:        dist.Quantile(0.99),
		TotalCells: dist.NumCells(),
		TotalLocs:  dist.TotalLocations(),
		CDF:        cdf.Series(200),
		Gini:       gini,
		Lorenz:     lorenz,
	}, nil
}

// Table1 computes the single-satellite capacity model of Table 1.
func (m Model) Table1(ctx context.Context, d *Dataset) (core.CapacityTable, error) {
	if err := ctx.Err(); err != nil {
		return core.CapacityTable{}, err
	}
	return m.Capacity.Capacity(d.Distribution()), nil
}

// Finding1 computes the oversubscription analysis behind Finding 1.
func (m Model) Finding1(ctx context.Context, d *Dataset) (core.OversubAnalysis, error) {
	if err := ctx.Err(); err != nil {
		return core.OversubAnalysis{}, err
	}
	return m.Capacity.Oversubscription(d.Distribution(), m.MaxOversub), nil
}

// PaperSizes holds a paper-reported constellation size for each of the
// paper's Table 2 beamspread factors, in PaperTable2Spreads order. It
// is a value: a copy shares nothing with the paper's table or with
// another result. JSON objects cannot carry float keys, so it marshals
// as an object keyed by the canonically formatted spread ("2", "15"),
// which keeps it serializable for the golden corpus and the
// observability layer.
type PaperSizes [len(paperTable2Spreads)]int

// At returns the size the paper reports at spread, or 0 for a spread
// its Table 2 does not list.
func (p PaperSizes) At(spread float64) int {
	if i := slices.Index(paperTable2Spreads[:], spread); i >= 0 {
		return p[i]
	}
	return 0
}

// MarshalJSON implements json.Marshaler with string-formatted keys.
func (p PaperSizes) MarshalJSON() ([]byte, error) {
	m := make(map[string]int, len(p))
	for i, v := range p {
		m[strconv.FormatFloat(paperTable2Spreads[i], 'g', -1, 64)] = v
	}
	return json.Marshal(m)
}

// Table2Result is the Table 2 reproduction plus the paper's reference
// values for comparison.
type Table2Result struct {
	Rows []core.SizeRow
	// PaperFullService and PaperCapped are the constellation sizes the
	// paper reports for the same beamspread factors (for EXPERIMENTS.md
	// style comparison).
	PaperFullService PaperSizes
	PaperCapped      PaperSizes
}

// paperTable2Spreads are the beamspread factors of the paper's Table 2.
var paperTable2Spreads = [...]float64{1, 2, 5, 10, 15}

// PaperTable2Spreads returns the beamspread factors of the paper's
// Table 2 as a new slice, which the caller owns.
func PaperTable2Spreads() []float64 {
	return slices.Clone(paperTable2Spreads[:])
}

// Table2 computes constellation sizes for the paper's beamspread
// factors under both deployment scenarios.
func (m Model) Table2(ctx context.Context, d *Dataset) (Table2Result, error) {
	rows, err := m.Capacity.SizeTable(ctx, d.Distribution(), paperTable2Spreads[:], m.MaxOversub)
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{
		Rows:             rows,
		PaperFullService: PaperSizes{79287, 40611, 16486, 8284, 5532},
		PaperCapped:      PaperSizes{80567, 41261, 16750, 8417, 5621},
	}, nil
}

// Fig2Result is the served-fraction surface of Figure 2.
type Fig2Result struct {
	Spreads, Oversubs []float64
	// Fraction[i][j] is the fraction of demand cells servable at
	// Spreads[i], Oversubs[j] with a single spread beam per cell.
	Fraction [][]float64
}

// Fig2 computes the Figure 2 surface over the paper's axes
// (beamspread 2..14, oversubscription 5..30).
func (m Model) Fig2(ctx context.Context, d *Dataset) (Fig2Result, error) {
	spreads := []float64{2, 4, 6, 8, 10, 12, 14}
	oversubs := []float64{5, 10, 15, 20, 25, 30}
	fraction, err := m.Capacity.ServedFractionGrid(ctx, d.Distribution(), spreads, oversubs)
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{
		Spreads:  spreads,
		Oversubs: oversubs,
		Fraction: fraction,
	}, nil
}

// Fig3Result is one diminishing-returns curve of Figure 3.
type Fig3Result struct {
	Spread  float64
	Oversub float64
	Points  []core.ReturnsPoint
	Steps   []core.StepCost
	// FloorUnserved is the unserved count that no constellation size
	// can reduce at this oversubscription (the paper's "last ~5k
	// locations").
	FloorUnserved int
}

// Fig3 computes the diminishing-returns curves at the model's
// beamspread factors (Fig3Spreads, default PaperTable2Spreads) and
// oversubscription cap, one worker per spread.
func (m Model) Fig3(ctx context.Context, d *Dataset) ([]Fig3Result, error) {
	spreads := m.Fig3Spreads
	if len(spreads) == 0 {
		spreads = paperTable2Spreads[:]
	}
	return m.fig3At(ctx, d, spreads)
}

// fig3At runs the Fig3 sweep at exactly the given spreads, ignoring
// Fig3Spreads: internal fixed-spread consumers (findings, economics)
// must not follow a scenario's spread knob.
func (m Model) fig3At(ctx context.Context, d *Dataset, spreads []float64) ([]Fig3Result, error) {
	dist := d.Distribution()
	floor := dist.ExcessAbove(m.Capacity.Beams.MaxServableLocations(m.MaxOversub))
	return par.Map(ctx, m.Capacity.Parallelism, len(spreads), func(i int) (Fig3Result, error) {
		s := spreads[i]
		pts, err := m.Capacity.DiminishingReturns(ctx, dist, s, m.MaxOversub)
		if err != nil {
			return Fig3Result{}, err
		}
		return Fig3Result{
			Spread:        s,
			Oversub:       m.MaxOversub,
			Points:        pts,
			Steps:         core.StepCosts(pts),
			FloorUnserved: floor,
		}, nil
	})
}

// Fig4Result is the affordability analysis of Figure 4 / Finding 4.
type Fig4Result struct {
	Results []afford.Result
	// Curves are the Figure 4 series per plan option.
	Curves map[string][]afford.CurvePoint
	// ZeroShares record where each plan's curve reaches zero.
	ZeroShares map[string]float64
	// TotalLocations is the dataset total.
	TotalLocations float64
}

// Fig4 computes the affordability comparison across the paper's plans.
// The per-plan curves are evaluated concurrently; results are ordered
// by effective price exactly as the serial comparison was.
func (m Model) Fig4(ctx context.Context, d *Dataset) (Fig4Result, error) {
	in, err := d.affordInput()
	if err != nil {
		return Fig4Result{}, err
	}
	options, err := resolvePlans(m.PlanFilter)
	if err != nil {
		return Fig4Result{}, err
	}
	curves, err := in.EvaluateCurves(ctx, options, m.AffordShare, 0.055, 110, m.Capacity.Parallelism)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{
		Results:        make([]afford.Result, 0, len(curves)),
		Curves:         make(map[string][]afford.CurvePoint, len(options)),
		ZeroShares:     make(map[string]float64, len(options)),
		TotalLocations: in.TotalLocations(),
	}
	for _, pc := range curves {
		name := planLabel(pc.Option)
		res.Curves[name] = pc.Curve
		res.ZeroShares[name] = pc.ZeroShare
		res.Results = append(res.Results, pc.Result)
	}
	sort.SliceStable(res.Results, func(i, j int) bool {
		return afford.EffectiveMonthlyUSD(res.Results[i].Plan, res.Results[i].Subsidy) <
			afford.EffectiveMonthlyUSD(res.Results[j].Plan, res.Results[j].Subsidy)
	})
	return res, nil
}

func planLabel(opt afford.PlanOption) string {
	if opt.Subsidy != nil {
		return opt.Plan.Name + " w/ " + opt.Subsidy.Name
	}
	return opt.Plan.Name
}

// resolvePlans resolves the Fig4 comparison set: the catalog options
// named by labels (Model.PlanFilter), in their order, or the paper's
// full four-option comparison when labels is empty. Filtering by label
// (not index) keeps the knob stable under catalog reordering. An
// unknown label is an error naming the valid ones, so a typo'd filter
// fails with a usable message instead of a silently empty figure;
// scenario validation runs it too, before any run.
func resolvePlans(labels []string) ([]afford.PlanOption, error) {
	all := afford.PaperComparison()
	if len(labels) == 0 {
		return all, nil
	}
	byLabel := make(map[string]afford.PlanOption, len(all))
	valid := make([]string, 0, len(all))
	for _, opt := range all {
		byLabel[planLabel(opt)] = opt
		valid = append(valid, planLabel(opt))
	}
	out := make([]afford.PlanOption, 0, len(labels))
	for _, name := range labels {
		opt, ok := byLabel[name]
		if !ok {
			return nil, fmt.Errorf("leodivide: unknown plan %q (valid: %s)",
				name, strings.Join(valid, ", "))
		}
		out = append(out, opt)
	}
	return out, nil
}

// AffordabilityInput exposes the location-weighted income distribution
// for custom policy analyses (see examples/policydesign).
//
//lint:ignore ctxfirst pure in-memory accessor over an already-built dataset; nothing blocks, nothing to cancel
func (m Model) AffordabilityInput(d *Dataset) (*afford.Input, error) {
	return d.affordInput()
}

// affordInput is the staged form of afford.NewInput(d.Incomes): the
// weighted income CDF is a pure function of the dataset, shared across
// Fig4, findings and concurrent serve queries via the stage memo.
// afford.Input is immutable after construction, so sharing is safe.
func (d *Dataset) affordInput() (*afford.Input, error) {
	return memo.Get(d.dist.Stages(), "afford.input", func() (*afford.Input, error) {
		return afford.NewInput(d.Incomes)
	})
}

// dispersedInput is the staged form of afford.NewDispersedInput at the
// default within-county dispersion.
func (d *Dataset) dispersedInput() (*afford.DispersedInput, error) {
	return memo.Get(d.dist.Stages(), "afford.dispersed", func() (*afford.DispersedInput, error) {
		return afford.NewDispersedInput(d.Incomes, afford.DefaultIncomeSigmaLog)
	})
}

// Findings aggregates the paper's four findings in one structure.
type Findings struct {
	F1 core.OversubAnalysis
	// F2: satellites needed at beamspread <2 to stay within acceptable
	// oversubscription.
	F2SatellitesAtSpread2  int
	F2CurrentConstellation int
	// F3: cost of the final tranche of servable locations.
	F3 []core.StepCost
	// F4: locations unable to afford Starlink Residential.
	F4Unaffordable         float64
	F4UnaffordableFraction float64
}

// CurrentStarlinkSatellites is the approximate deployed constellation
// size the paper cites.
const CurrentStarlinkSatellites = 8000

// RunFindings evaluates all four findings. Cancellation is observed at
// entry and between the Fig4, sizing and Fig3 stages (the registry's
// uniform contract).
func (m Model) RunFindings(ctx context.Context, d *Dataset) (Findings, error) {
	f4, err := m.Fig4(ctx, d)
	if err != nil {
		return Findings{}, err
	}
	var starlink afford.Result
	found := false
	for _, r := range f4.Results {
		if r.Plan.Name == afford.StarlinkResidential().Name && r.Subsidy == nil {
			starlink = r
			found = true
		}
	}
	if !found {
		// A PlanFilter that excludes the unsubsidized Starlink plan
		// leaves F4 undefined; fail loudly rather than report zeros.
		return Findings{}, fmt.Errorf("leodivide: findings needs %q in the plan comparison (PlanFilter excludes it)",
			afford.StarlinkResidential().Name)
	}
	if err := ctx.Err(); err != nil {
		return Findings{}, err
	}
	capped := m.Capacity.Size(d.Distribution(), core.CappedOversub, 2, m.MaxOversub)
	fig3, err := m.fig3At(ctx, d, []float64{10})
	if err != nil {
		return Findings{}, err
	}
	var lastSteps []core.StepCost
	if len(fig3) > 0 {
		steps := fig3[0].Steps
		if len(steps) > 3 {
			steps = steps[len(steps)-3:]
		}
		lastSteps = steps
	}
	f1, err := m.Finding1(ctx, d)
	if err != nil {
		return Findings{}, err
	}
	return Findings{
		F1:                     f1,
		F2SatellitesAtSpread2:  capped.Satellites,
		F2CurrentConstellation: CurrentStarlinkSatellites,
		F3:                     lastSteps,
		F4Unaffordable:         starlink.UnaffordableLocations,
		F4UnaffordableFraction: starlink.UnaffordableFraction,
	}, nil
}
