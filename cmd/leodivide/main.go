// Command leodivide regenerates every table and figure of the paper
// from the calibrated synthetic dataset, and exports datasets in the
// BDC-style CSV formats.
//
// Usage:
//
//	leodivide [flags] <command>
//
// Commands:
//
//	experiments list every registered experiment
//	fig1      per-cell density distribution (Figure 1)
//	table1    single-satellite capacity model (Table 1)
//	table2    constellation sizing (Table 2)
//	fig2      beamspread × oversubscription served fraction (Figure 2)
//	fig3      diminishing returns (Figure 3)
//	fig4      affordability (Figure 4)
//	findings   the paper's four findings (F1–F4)
//	simcheck   time-stepped simulator cross-check of the analytic model
//	ablate     parameter and undercount sensitivity ablations
//	fleets     assess the authorized Gen1/Gen2 fleets against the requirement
//	linkbudget derive the 4.5 b/Hz spectral-efficiency estimate physically
//	refined    affordability with income dispersion and Lifeline eligibility
//	costcurve  cost per served location vs fleet size, per constellation
//	xconst     which constellation closes the divide cheapest (100/20)
//	xregion    service fraction vs affordability per demand geography
//	gen        write the dataset as CSV (cells, and optionally locations)
//	verify     replay the committed golden corpus; exit nonzero on drift
//	serve      answer scenario queries over HTTP/JSON with a memoized cache
//	loadgen    drive a running serve instance and report latency + hit rate
//	all        run every experiment in order
//
// The -scenario flag accepts the exact JSON body of POST /v1/scenario
// (the leodivide.ScenarioRequest wire contract), so a query saved from
// the HTTP API replays byte-for-byte through the CLI; the individual
// flags remain as shorthands the scenario's fields override.
//
// Observability flags: -metrics prints the obs metric snapshot to
// stderr after the command (stdout stays byte-identical for result
// comparison); -trace prints the span tree; -debug-addr serves pprof,
// expvar and /metrics over HTTP for live inspection.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"leodivide"
	"leodivide/internal/afford"
	"leodivide/internal/bdc"
	"leodivide/internal/beams"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/linkbudget"
	"leodivide/internal/obs"
	"leodivide/internal/orbit"
	"leodivide/internal/report"
	"leodivide/internal/safeio"
	"leodivide/internal/sim"
	"leodivide/internal/traffic"
	"leodivide/internal/usgeo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leodivide:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	// Both surfaces (library and CLI) build their pipeline from
	// the same leodivide.RunConfig; the flags bind directly to it.
	cfg := leodivide.DefaultRunConfig()
	fs := flag.NewFlagSet("leodivide", flag.ContinueOnError)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "dataset generation seed")
	fs.Float64Var(&cfg.Scale, "scale", cfg.Scale, "dataset scale in (0,1]")
	fs.BoolVar(&cfg.Calibrated, "calibrated", cfg.Calibrated, "pin effective cells to the paper's fitted value")
	fs.IntVar(&cfg.Parallelism, "parallelism", cfg.Parallelism, "worker bound for experiments (0 = all CPUs, 1 = serial)")
	regionKey := fs.String("region", "", "demand/income geography (us, brazil-rural, taipei-dense; default us)")
	scenarioJSON := fs.String("scenario", "", "scenario request JSON (the exact POST /v1/scenario body); overrides the shorthand flags")
	metrics := fs.Bool("metrics", false, "print the metric snapshot to stderr after the command")
	trace := fs.Bool("trace", false, "record spans and print the trace tree to stderr after the command")
	debugAddr := fs.String("debug-addr", "", "serve pprof, expvar and /metrics on this address (e.g. localhost:6060)")
	locCSV := fs.String("locations-csv", "", "gen: also write per-location CSV to this path (scaled)")
	locScale := fs.Float64("locations-scale", 0.01, "gen: per-location expansion scale")
	exportDir := fs.String("dir", "export", "export: output directory for GeoJSON/CSV files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// The scenario is the one description of the run every command
	// shares: the flags form the base, and -scenario (the HTTP wire
	// contract) merges on top — pointer fields (seed, scale, calibrated)
	// override the shorthand flags when present.
	sc := leodivide.ScenarioConfig{RunConfig: cfg, Region: *regionKey}
	if *scenarioJSON != "" {
		req, err := leodivide.ParseScenarioRequest([]byte(*scenarioJSON))
		if err != nil {
			return err
		}
		if sc, err = req.Apply(sc); err != nil {
			return err
		}
		// The request's region replaces the flag's wholesale, so an
		// explicit -region the merged scenario does not keep would be
		// dropped silently.
		if r := sc.Normalized().Region; *regionKey != "" && r != *regionKey {
			return fmt.Errorf("-region %q conflicts with -scenario region %q", *regionKey, r)
		}
	}
	var cmd string
	switch {
	case fs.NArg() >= 1:
		cmd = fs.Arg(0)
	case sc.Experiment != "":
		// `-scenario '{"experiment":"xconst",...}'` with no command arg
		// runs the scenario's experiment, like the HTTP API would.
		cmd = sc.Experiment
	default:
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	ctx := context.Background()

	if *debugAddr != "" {
		bound, err := startDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof, expvar, /metrics)\n", bound)
	}
	if *trace {
		rec := &obs.RecordingCollector{}
		defer obs.SetCollector(rec)()
		defer func() {
			fmt.Fprintln(os.Stderr, "--- trace ---")
			//lint:ignore errdrop best-effort trace dump to stderr during shutdown
			rec.WriteText(os.Stderr)
		}()
	}
	if *metrics {
		// Stderr, so stdout stays byte-identical across parallelism
		// settings (the determinism contract).
		defer func() {
			fmt.Fprintln(os.Stderr, "--- metrics ---")
			//lint:ignore errdrop best-effort metrics dump to stderr during shutdown
			obs.Default.Snapshot().WriteText(os.Stderr)
		}()
	}

	m := sc.BuildModel()
	if sc.Experiment != "" && cmd != sc.Experiment {
		if _, ok := m.ExperimentByName(cmd); ok {
			return fmt.Errorf("command %q conflicts with -scenario experiment %q", cmd, sc.Experiment)
		}
	}
	switch cmd {
	case "experiments":
		return runExperimentList(w, m)
	case "verify":
		return runVerify(ctx, w, sc.RunConfig, fs.Args()[1:])
	case "serve":
		return runServe(ctx, w, sc, fs.Args()[1:])
	case "loadgen":
		return runLoadgen(ctx, w, fs.Args()[1:])
	}

	ds, err := sc.Generate(ctx)
	if err != nil {
		return err
	}

	switch cmd {
	case "stability":
		return runStability(ctx, w, m)
	case "export":
		return runExport(ctx, w, m, ds, *exportDir)
	case "gen":
		return runGen(ctx, w, ds, cfg.Seed, *locCSV, *locScale)
	case "all":
		for _, name := range allOrder {
			if err := runOne(ctx, w, m, ds, name); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return runOne(ctx, w, m, ds, cmd)
	}
}

// allOrder is the presentation order of `leodivide all`.
var allOrder = []string{
	"fig1", "table1", "table2", "fig2", "fig3", "fig4", "findings",
	"simcheck", "ablate", "fleets", "refined", "linkbudget", "states",
	"latency", "busyhour", "econ", "costcurve", "xconst", "xregion",
}

// renderer turns one experiment's result (the registry's `any`) back
// into the report tables the CLI prints.
type renderer func(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error

// resultAs recovers an experiment's concrete result type from the
// registry's any — the CLI-side counterpart of leodivide.RunAs.
func resultAs[T any](name string, v any) (T, error) {
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: unexpected result type %T, want %T", name, v, zero)
	}
	return t, nil
}

// renderers maps registry experiment names to their presentation. Every
// registry entry must have one — TestRegistryCoversRenderers enforces
// the pairing, which is what keeps CLI and library from drifting.
var renderers = map[string]renderer{
	"fig1":      renderFig1,
	"table1":    renderTable1,
	"table2":    renderTable2,
	"fig2":      renderFig2,
	"fig3":      renderFig3,
	"fig4":      renderFig4,
	"findings":  renderFindings,
	"fleets":    renderFleets,
	"refined":   renderRefined,
	"busyhour":  renderBusyHour,
	"econ":      renderEcon,
	"costcurve": renderCostCurve,
	"xconst":    renderXConst,
	"xregion":   renderXRegion,
}

// runOne dispatches one subcommand: registry experiments run through
// Model.Experiments and their renderer; the CLI-only analyses
// (simulator cross-check, ablations, link budget, state report,
// latency) keep dedicated paths.
func runOne(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, name string) error {
	if exp, ok := m.ExperimentByName(name); ok {
		render, ok := renderers[name]
		if !ok {
			return fmt.Errorf("experiment %q has no renderer", name)
		}
		v, err := exp.Run(ctx, ds)
		if err != nil {
			return err
		}
		return render(ctx, w, m, ds, v)
	}
	switch name {
	case "simcheck":
		return runSimCheck(ctx, w, ds)
	case "ablate":
		return runAblate(w, m, ds)
	case "linkbudget":
		return runLinkBudget(w)
	case "states":
		return runStates(w, m, ds)
	case "latency":
		return runLatency(w)
	default:
		return fmt.Errorf("unknown command %q", name)
	}
}

func runExperimentList(w io.Writer, m leodivide.Model) error {
	t := report.NewTable("Registered experiments", "name", "description")
	for _, e := range m.Experiments() {
		t.AddRow(e.Name, e.Description)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "CLI-only analyses: simcheck, ablate, linkbudget, states, latency, stability, export, gen, verify, serve, loadgen.")
	return nil
}

func renderFig1(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.Fig1Result]("fig1", v)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 1 — un(der)served locations per service cell",
		"statistic", "value", "paper")
	t.AddRow("total locations", r.TotalLocs, 4672000)
	t.AddRow("demand cells", r.TotalCells, "n/a")
	t.AddRow("max locations/cell", r.MaxCell, 5998)
	t.AddRow("99th percentile", r.P99, 1437)
	t.AddRow("90th percentile", r.P90, 552)
	t.AddRow("median", int(r.Summary.Median), "n/a")
	t.AddRow("Gini (demand concentration)", fmt.Sprintf("%.3f", r.Gini), "n/a")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	xs := make([]float64, len(r.CDF))
	ys := make([]float64, len(r.CDF))
	for i, p := range r.CDF {
		xs[i], ys[i] = p.X, p.Y
	}
	return report.Series(w, "fig1-cdf locations/cell vs cumulative probability", xs, ys)
}

func renderTable1(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	c, err := resultAs[core.CapacityTable]("table1", v)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 1 — Starlink single-satellite capacity model",
		"parameter", "value", "paper")
	t.AddRow("UT downlink spectrum (MHz)", c.UTDownlinkMHz, 3850)
	t.AddRow("spectral efficiency (b/Hz)", c.SpectralEfficiencyBpsPerHz, 4.5)
	t.AddRow("max per-cell capacity (Gbps)", c.MaxCellCapacityGbps, 17.3)
	t.AddRow("peak cell users", c.PeakCellLocations, 5998)
	t.AddRow("FCC throughput (DL/UL Mbps)", fmt.Sprintf("%.0f/%.0f", c.FCCDownMbps, c.FCCUpMbps), "100/20")
	t.AddRow("peak cell DL demand (Gbps)", c.PeakCellDemandGbps, 599.8)
	t.AddRow("max DL oversubscription", fmt.Sprintf("%.1f:1", c.MaxOversubscription), "~35:1")
	_, err = t.WriteTo(w)
	return err
}

func renderTable2(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.Table2Result]("table2", v)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 2 — constellation size vs beamspread",
		"beamspread", "full service", "paper", "max 20:1", "paper ")
	for _, row := range r.Rows {
		t.AddRow(row.Spread, row.FullServiceSats, r.PaperFullService[row.Spread],
			row.CappedOversubSats, r.PaperCapped[row.Spread])
	}
	_, err = t.WriteTo(w)
	return err
}

func renderFig2(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.Fig2Result]("fig2", v)
	if err != nil {
		return err
	}
	return report.Heatmap(w,
		"Figure 2 — fraction of US demand cells served (rows: beamspread, cols: oversubscription)",
		r.Spreads, r.Oversubs, r.Fraction)
}

func renderFig3(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	results, err := resultAs[[]leodivide.Fig3Result]("fig3", v)
	if err != nil {
		return err
	}
	for _, res := range results {
		t := report.NewTable(
			fmt.Sprintf("Figure 3 — diminishing returns (beamspread %g, oversub %g:1, unservable floor %d)",
				res.Spread, res.Oversub, res.FloorUnserved),
			"unserved-from", "unserved-to", "locations gained", "additional satellites")
		for _, s := range res.Steps {
			t.AddRow(s.FromUnserved, s.ToUnserved, s.LocationsGained, s.AdditionalSatellites)
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

func renderFig4(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.Fig4Result]("fig4", v)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 4 / Finding 4 — affordability at 2% of income",
		"plan", "monthly", "income threshold", "unaffordable locations", "fraction")
	for _, res := range r.Results {
		t.AddRow(label(res), fmt.Sprintf("$%.2f", afford.EffectiveMonthlyUSD(res.Plan, res.Subsidy)),
			fmt.Sprintf("$%.0f", res.IncomeThresholdUSD),
			int(res.UnaffordableLocations),
			fmt.Sprintf("%.3f", res.UnaffordableFraction))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "paper: 3.5M of 4.7M (74.5%%) cannot afford Starlink Residential; ~3.0M with Lifeline\n\n")

	// The wider catalog: a plan must both qualify (100/20, low latency)
	// and be affordable — the double bind.
	in, err := m.AffordabilityInput(ds)
	if err != nil {
		return err
	}
	ct := report.NewTable("Plan catalog — qualification x affordability",
		"plan", "technology", "monthly", "meets 100/20", "unaffordable")
	for _, res := range in.EvaluateCatalog(m.AffordShare) {
		ct.AddRow(res.Name, res.Technology, fmt.Sprintf("$%.0f", res.MonthlyUSD),
			res.Qualifies, fmt.Sprintf("%.1f%%", 100*res.Afford.UnaffordableFraction))
	}
	_, err = ct.WriteTo(w)
	return err
}

func label(r afford.Result) string {
	if r.Subsidy != nil {
		return r.Plan.Name + " w/ " + r.Subsidy.Name
	}
	return r.Plan.Name
}

func renderFindings(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	f, err := resultAs[leodivide.Findings]("findings", v)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "F1: full service needs %.1f:1 oversubscription; at %g:1, %d locations (%.2f%%) live in cells above the cap and %d locations (%.2f%% of total) cannot be served (served fraction %.4f; paper: 99.89%%).\n",
		f.F1.RequiredOversub, f.F1.MaxOversub, f.F1.LocationsInCellsAboveCap,
		100*float64(f.F1.LocationsInCellsAboveCap)/float64(f.F1.TotalLocations),
		f.F1.ExcessLocations, 100*float64(f.F1.ExcessLocations)/float64(f.F1.TotalLocations),
		f.F1.ServedFractionAtCap)
	fmt.Fprintf(&b, "F2: serving all US cells within acceptable oversubscription at beamspread 2 needs %d satellites vs the current ~%d deployed (paper: >40,000 vs ~8,000).\n",
		f.F2SatellitesAtSpread2, f.F2CurrentConstellation)
	fmt.Fprintf(&b, "F3: the final tranches of servable locations cost disproportionately many satellites:\n")
	for _, s := range f.F3 {
		fmt.Fprintf(&b, "    +%d satellites to serve %d more locations (unserved %d -> %d)\n",
			s.AdditionalSatellites, s.LocationsGained, s.FromUnserved, s.ToUnserved)
	}
	fmt.Fprintf(&b, "F4: %.0f of %d locations (%.1f%%) cannot afford Starlink Residential (paper: 3.5M of 4.7M, 74.5%%).\n",
		f.F4Unaffordable, ds.TotalLocations(), 100*f.F4UnaffordableFraction)
	_, err = io.WriteString(w, b.String())
	return err
}

func runSimCheck(ctx context.Context, w io.Writer, ds *leodivide.Dataset) error {
	cfg := sim.DefaultConfig()
	res, err := sim.Run(ctx, cfg, ds.Cells)
	if err != nil {
		return err
	}
	bent := cfg
	bent.RequireGatewayVisibility = true
	for _, gw := range usgeo.GatewaySites() {
		bent.Gateways = append(bent.Gateways, gw.Pos)
	}
	resBent, err := sim.Run(ctx, bent, ds.Cells)
	if err != nil {
		return err
	}
	t := report.NewTable("Simulator cross-check — Walker 53°/550 km shell over demand cells",
		"metric", "free routing", "bent-pipe (36 gateways)")
	t.AddRow("epochs", res.Epochs, resBent.Epochs)
	t.AddRow("mean visible satellites per cell",
		fmt.Sprintf("%.1f", res.MeanVisibleSats), fmt.Sprintf("%.1f", resBent.MeanVisibleSats))
	t.AddRow("mean covered fraction",
		fmt.Sprintf("%.4f", res.MeanCoveredFraction), fmt.Sprintf("%.4f", resBent.MeanCoveredFraction))
	t.AddRow("min covered fraction",
		fmt.Sprintf("%.4f", res.MinCoveredFraction), fmt.Sprintf("%.4f", resBent.MinCoveredFraction))
	t.AddRow("mean served fraction",
		fmt.Sprintf("%.4f", res.MeanServedFraction), fmt.Sprintf("%.4f", resBent.MeanServedFraction))
	t.AddRow("min served fraction",
		fmt.Sprintf("%.4f", res.MinServedFraction), fmt.Sprintf("%.4f", resBent.MinServedFraction))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	// Dynamics over half an orbit: utilization and handover churn.
	series, err := sim.RunSeries(ctx, cfg, ds.Cells)
	if err != nil {
		return err
	}
	// Coverage by latitude: the inclined shell's Alaska cliff.
	bands, err := sim.CoverageByLatitude(ctx, cfg, ds.Cells, 10)
	if err != nil {
		return err
	}
	bt := report.NewTable("Coverage by latitude band (first epoch)",
		"band", "cells", "covered fraction")
	for _, b := range bands {
		bt.AddRow(fmt.Sprintf("%g-%gN", b.LatLoDeg, b.LatHiDeg), b.Cells,
			fmt.Sprintf("%.3f", b.CoveredFraction))
	}
	if _, err := bt.WriteTo(w); err != nil {
		return err
	}

	st := report.NewTable("Simulator time series (beam utilization and handovers)",
		"t (s)", "covered", "served", "beam utilization", "handovers")
	for _, e := range series {
		st.AddRow(int(e.TimeSec), fmt.Sprintf("%.3f", e.CoveredFraction),
			fmt.Sprintf("%.3f", e.ServedFraction),
			fmt.Sprintf("%.3f", e.BeamUtilization), e.Handovers)
	}
	_, err = st.WriteTo(w)
	return err
}

func runAblate(w io.Writer, m leodivide.Model, ds *leodivide.Dataset) error {
	dist := ds.Distribution()
	t := report.NewTable("Ablation — full-service constellation at beamspread 2 under parameter changes",
		"variant", "satellites", "delta vs base")
	base := m.Capacity.Size(dist, core.FullService, 2, 0).Satellites
	add := func(name string, mm leodivide.Model) {
		n := mm.Capacity.Size(dist, core.FullService, 2, 0).Satellites
		t.AddRow(name, n, fmt.Sprintf("%+.1f%%", 100*(float64(n)/float64(base)-1)))
	}
	t.AddRow("baseline", base, "+0.0%")

	mEff := m
	mEff.Capacity.Beams.BeamCapacityGbps *= 5.5 / 4.5 // spectral efficiency 5.5 b/Hz
	add("spectral efficiency 5.5 b/Hz", mEff)

	mBeams := m
	mBeams.Capacity.Beams.BeamsPerSatellite = 32
	add("32 UT beams per satellite", mBeams)

	mInc := m
	mInc.Capacity.InclinationDeg = 70
	add("70 deg inclination shell", mInc)

	mCellBig := m
	mCellBig.Capacity.CellAreaKm2 *= 7 // one resolution coarser
	add("7x larger service cells", mCellBig)

	mAll := m
	mAll.Capacity.Binding = core.BindAllCells
	add("all-cells binding (tighter bound)", mAll)

	mGW := m
	mGW.Capacity.Beams.BeamsPerSatellite =
		m.Capacity.Beams.EffectiveUTBeams(beams.DefaultGatewayConfig())
	add(fmt.Sprintf("bent-pipe backhaul budget (%d UT beams)",
		mGW.Capacity.Beams.BeamsPerSatellite), mGW)

	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	// Undercount sensitivity: the FCC map is built from ISP
	// self-reports known to overstate coverage; rescale demand upward
	// and watch the findings move.
	ut := report.NewTable("Ablation — sensitivity to National Broadband Map undercounting",
		"true demand vs map", "peak oversubscription", "unservable at 20:1", "satellites (beamspread 2, 20:1)")
	for _, factor := range []float64{1.0, 1.1, 1.25, 1.5} {
		scaled, err := demand.Scale(ds.Cells, factor)
		if err != nil {
			return err
		}
		sdist, err := demand.NewDistribution(scaled)
		if err != nil {
			return err
		}
		o := m.Capacity.Oversubscription(sdist, m.MaxOversub)
		size := m.Capacity.Size(sdist, core.CappedOversub, 2, m.MaxOversub)
		ut.AddRow(fmt.Sprintf("%+.0f%%", 100*(factor-1)),
			fmt.Sprintf("%.1f:1", o.RequiredOversub),
			o.ExcessLocations, size.Satellites)
	}
	_, err := ut.WriteTo(w)
	return err
}

func renderFleets(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.FleetsResult]("fleets", v)
	if err != nil {
		return err
	}
	print := func(a core.FleetAssessment) {
		t := report.NewTable(
			fmt.Sprintf("%s — %d satellites (≈%d single-shell-equivalent at %.1f°N)",
				a.FleetName, a.TotalSatellites, a.EquivalentSatellites, a.BindingLatDeg),
			"beamspread", "required satellites", "coverage ratio")
		for _, row := range a.Rows {
			t.AddRow(row.Spread, row.RequiredSatellites, fmt.Sprintf("%.2f", row.CoverageRatio))
		}
		//lint:ignore errdrop human-facing table print to the CLI writer, same contract as the exempt fmt.Fprintf calls around it
		t.WriteTo(w)
	}
	print(r.Gen1)
	print(r.Gen2)
	// The inverse question: what must today's fleet give up?
	inv := m.Capacity.InverseSize(ds.Distribution(), leodivide.CurrentStarlinkSatellites, m.MaxOversub)
	fmt.Fprintf(w, "today's ~%d satellites force beamspread ≈%.1f: %.2f Gbps per single-beam cell, only %.1f%% of demand cells servable within %g:1.\n",
		inv.Satellites, inv.RequiredSpread, inv.PerCellCapacityGbps,
		100*inv.ServedCellFraction, m.MaxOversub)
	return nil
}

func renderRefined(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.RefinedFig4Result]("refined", v)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Refined affordability — within-county lognormal dispersion (σ=%.2f, household of %d)",
			r.SigmaLog, r.HouseholdSize),
		"model", "unaffordable locations", "fraction")
	t.AddRow("median-only (paper assumption)", int(r.MedianOnly.UnaffordableLocations),
		fmt.Sprintf("%.3f", r.MedianOnly.UnaffordableFraction))
	t.AddRow("dispersed incomes", int(r.Dispersed.UnaffordableLocations),
		fmt.Sprintf("%.3f", r.Dispersed.UnaffordableFraction))
	t.AddRow("dispersed + Lifeline eligibility", int(r.LifelineAware.UnaffordableLocations),
		fmt.Sprintf("%.3f", r.LifelineAware.UnaffordableFraction))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "Lifeline-eligible households: %.1f%%; rescued by the subsidy: %.2f%% — the $9.25 subsidy's income ceiling ($%.0f threshold vs ~$42k cutoff) makes it unusable for Starlink's price point.\n",
		100*r.LifelineAware.EligibleFraction, 100*r.LifelineAware.SubsidyUsableFraction,
		r.LifelineAware.IncomeThresholdUSD)
	return nil
}

func runLinkBudget(w io.Writer) error {
	b := linkbudget.StarlinkKuDownlink()
	t := report.NewTable("Link budget — Starlink Ku downlink at 40° elevation",
		"item", "value", "unit")
	for _, line := range b.Breakdown(40) {
		t.AddRow(line.Item, fmt.Sprintf("%.2f", line.Value), line.Unit)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	eff, err := b.MeanEfficiency(25)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "elevation-weighted mean spectral efficiency over the 25° cone: %.2f b/Hz (paper adopts ~4.5)\n", eff)
	et := report.NewTable("Spectral efficiency vs elevation", "elevation (deg)", "C/N (dB)", "efficiency (b/Hz)")
	for _, el := range []float64{25, 30, 40, 50, 60, 75, 90} {
		et.AddRow(el, fmt.Sprintf("%.1f", b.CNdB(el)), fmt.Sprintf("%.2f", b.EfficiencyAt(el)))
	}
	_, err = et.WriteTo(w)
	return err
}

func runGen(ctx context.Context, w io.Writer, ds *leodivide.Dataset, seed int64, locCSV string, locScale float64) error {
	if err := bdc.WriteCellsCSV(w, ds.Cells); err != nil {
		return err
	}
	if locCSV != "" {
		cfg := bdc.DefaultGenConfig()
		cfg.Seed = seed
		locs, err := bdc.GenerateLocations(cfg, ds.Cells, locScale)
		if err != nil {
			return err
		}
		if _, err := safeio.WriteFile(ctx, locCSV, func(f io.Writer) error {
			return bdc.WriteLocationsCSV(f, locs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d locations to %s\n", len(locs), locCSV)
	}
	return nil
}

func runLatency(w io.Writer) error {
	t := report.NewTable("Latency geometry — why LEO, in the paper's framing",
		"path", "RTT (ms)")
	t.AddRow("LEO 550 km bent-pipe floor", fmt.Sprintf("%.2f", orbit.MinBentPipeRTTMs(550)))
	t.AddRow("LEO 1,200 km bent-pipe floor", fmt.Sprintf("%.2f", orbit.MinBentPipeRTTMs(1200)))
	t.AddRow("GEO 35,786 km bent-pipe floor", fmt.Sprintf("%.2f", orbit.GEOBentPipeRTTMs()))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	// A realistic profile: a New Mexico terminal under a quarter shell
	// with the national gateway network.
	shell := orbit.Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 396, Planes: 18, Phasing: 1}
	var gws []geo.LatLng
	for _, g := range usgeo.GatewaySites() {
		gws = append(gws, g.Pos)
	}
	p, err := shell.BentPipeLatency(geo.LatLng{Lat: 35.5, Lng: -106.3}, gws, 25, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured bent-pipe RTT from 35.5N (quarter shell, %d epochs): min %.1f ms, mean %.1f ms, max %.1f ms\n",
		p.Samples, p.MinRTTMs, p.MeanRTTMs, p.MaxRTTMs)
	fmt.Fprintf(w, "max Ku Doppler at 550 km: %.0f kHz\n", orbit.MaxDopplerHz(550, 11.7)/1000)
	return nil
}

func runExport(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Every export artifact is written atomically with close/flush
	// errors propagated (see internal/safeio).
	writeFile := func(name string, fn func(io.Writer) error) error {
		_, err := safeio.WriteFile(ctx, filepath.Join(dir, name), fn)
		return err
	}
	if err := writeFile("cells.geojson", func(out io.Writer) error {
		return report.WriteCellsGeoJSON(out, ds.Cells, 0)
	}); err != nil {
		return err
	}
	if err := writeFile("cells.csv", func(out io.Writer) error {
		return bdc.WriteCellsCSV(out, ds.Cells)
	}); err != nil {
		return err
	}
	if err := writeFile("gateways.geojson", func(out io.Writer) error {
		sites := usgeo.GatewaySites()
		names := make([]string, len(sites))
		positions := make([]geo.LatLng, len(sites))
		for i, g := range sites {
			names[i] = g.Name
			positions[i] = g.Pos
		}
		return report.WriteGatewaysGeoJSON(out, names, positions)
	}); err != nil {
		return err
	}
	// Figure data bundles, one CSV per figure, for external plotting.
	if err := writeFile("fig1_cdf.csv", func(out io.Writer) error {
		r, err := m.Fig1(ctx, ds)
		if err != nil {
			return err
		}
		xs := make([]float64, len(r.CDF))
		ys := make([]float64, len(r.CDF))
		for i, p := range r.CDF {
			xs[i], ys[i] = p.X, p.Y
		}
		return report.Series(out, "locations per cell vs cumulative probability", xs, ys)
	}); err != nil {
		return err
	}
	if err := writeFile("fig2_grid.csv", func(out io.Writer) error {
		r, err := m.Fig2(ctx, ds)
		if err != nil {
			return err
		}
		t := report.NewTable("", append([]string{"beamspread"}, labelsOf(r.Oversubs)...)...)
		for i, spread := range r.Spreads {
			row := make([]interface{}, 0, len(r.Oversubs)+1)
			row = append(row, spread)
			for _, v := range r.Fraction[i] {
				row = append(row, fmt.Sprintf("%.4f", v))
			}
			t.AddRow(row...)
		}
		_, err = io.WriteString(out, t.CSV())
		return err
	}); err != nil {
		return err
	}
	if err := writeFile("fig3_curves.csv", func(out io.Writer) error {
		t := report.NewTable("", "beamspread", "cap", "unserved", "satellites")
		curves, err := m.Fig3(ctx, ds)
		if err != nil {
			return err
		}
		for _, res := range curves {
			for _, p := range res.Points {
				t.AddRow(res.Spread, p.CapLocations, p.UnservedLocations, p.Satellites)
			}
		}
		_, err = io.WriteString(out, t.CSV())
		return err
	}); err != nil {
		return err
	}
	if err := writeFile("fig4_curves.csv", func(out io.Writer) error {
		r, err := m.Fig4(ctx, ds)
		if err != nil {
			return err
		}
		t := report.NewTable("", "plan", "share_of_income", "locations_unable")
		for name, curve := range r.Curves {
			for _, p := range curve {
				t.AddRow(name, fmt.Sprintf("%.4f", p.Share), fmt.Sprintf("%.0f", p.Count))
			}
		}
		_, err = io.WriteString(out, t.CSV())
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "exported cells.geojson, cells.csv, gateways.geojson and fig1-fig4 CSVs to %s\n", dir)
	return nil
}

func labelsOf(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%g", x)
	}
	return out
}

func renderBusyHour(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.BusyHourResult]("busyhour", v)
	if err != nil {
		return err
	}
	t := report.NewTable("Busy hour — the time dimension of P2",
		"quantity", "value")
	t.AddRow("local busy hour", fmt.Sprintf("%02d:00", r.PeakHourLocal))
	t.AddRow("busy-hour demand multiplier", fmt.Sprintf("%.2fx", r.PeakFactor))
	t.AddRow("peak-to-mean, single cell", fmt.Sprintf("%.2f", r.Stagger.CellPeakToMean))
	t.AddRow("peak-to-mean, one satellite footprint", fmt.Sprintf("%.2f", r.Stagger.FootprintPeakToMean))
	t.AddRow("peak-to-mean, national", fmt.Sprintf("%.2f", r.Stagger.NationalPeakToMean))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "a satellite footprint spans ~1 time zone: staggering relieves the nation (%.2f) but not the satellite (%.2f) — P2 binds locally.\n\n",
		r.Stagger.NationalPeakToMean, r.Stagger.FootprintPeakToMean)
	bt := report.NewTable(fmt.Sprintf("Busy-hour per-location throughput with one beam spread %g ways", r.Spread),
		"cell", "Mbps per location")
	bt.AddRow("median cell", fmt.Sprintf("%.1f", r.MedianCellMbps))
	bt.AddRow("p90 cell", fmt.Sprintf("%.1f", r.P90CellMbps))
	bt.AddRow("peak cell", fmt.Sprintf("%.2f", r.PeakCellMbps))
	if _, err := bt.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "the FCC benchmark is 100 Mbps — the paper's \"degrading service quality at busy times\".\n\n")

	// Location-weighted experience: most locations live in dense cells.
	exp, err := m.Capacity.ExperienceUnderSpread(ds.Distribution(), r.Spread, 25, 100)
	if err != nil {
		return err
	}
	et := report.NewTable(
		fmt.Sprintf("Per-location throughput distribution (one beam spread %g ways)", exp.Spread),
		"quantile (by location)", "Mbps")
	et.AddRow("p10", fmt.Sprintf("%.2f", exp.P10Mbps))
	et.AddRow("median", fmt.Sprintf("%.2f", exp.MedianMbps))
	et.AddRow("p90", fmt.Sprintf("%.2f", exp.P90Mbps))
	et.AddRow("share at ≥25 Mbps", fmt.Sprintf("%.1f%%", 100*exp.FractionAtLeast[25]))
	et.AddRow("share at ≥100 Mbps", fmt.Sprintf("%.1f%%", 100*exp.FractionAtLeast[100]))
	if _, err := et.WriteTo(w); err != nil {
		return err
	}

	// Service quality over the day: the evening peak sweeping westward.
	points, err := m.Capacity.ServedFractionOverDay(ctx, traffic.DefaultProfile(), ds.Cells, r.Spread, m.MaxOversub, 24)
	if err != nil {
		return err
	}
	daily := core.SummarizeDaily(points)
	fmt.Fprintf(w, "\nserved-cell fraction over the day (spread %g, %g:1): best %.3f, worst %.3f at %02.0f:00 UTC (US evening).\n",
		r.Spread, m.MaxOversub, daily.BestFraction, daily.WorstFraction, daily.WorstUTCHour)
	return nil
}

func renderEcon(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.EconomicsResult]("econ", v)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Constellation economics — $%.1fM per satellite all-in, %g-year life (capped 20:1 scenarios)",
			r.Model.PerSatelliteUSD()/1e6, r.Model.SatelliteLifetimeYears),
		"beamspread", "satellites", "capex ($B)", "sustaining ($B/yr)", "$/location/month")
	for i, sc := range r.Scenarios {
		t.AddRow(leodivide.PaperTable2Spreads[i], sc.Satellites,
			fmt.Sprintf("%.1f", sc.CapexUSD/1e9),
			fmt.Sprintf("%.2f", sc.AnnualizedUSD/1e9),
			fmt.Sprintf("%.0f", sc.MonthlyPerLocationUSD))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	tt := report.NewTable("The diminishing-returns tail in dollars (beamspread 10, F3 priced)",
		"locations gained", "additional satellites", "capex per location", "sustaining $/loc/month")
	for _, step := range r.Tail {
		tt.AddRow(step.LocationsGained, step.AdditionalSatellites,
			fmt.Sprintf("$%.1fM", step.CapexPerLocationUSD/1e6),
			fmt.Sprintf("$%.0fk", step.MonthlyPerLocationUSD/1e3))
	}
	if _, err := tt.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "Starlink Residential sells at $120/month; the paper's affordability bar is 2%% of income.\n")
	return nil
}

func renderCostCurve(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.CostCurveResult]("costcurve", v)
	if err != nil {
		return err
	}
	for _, sys := range r.Systems {
		t := report.NewTable(
			fmt.Sprintf("Cost curve — %s (%d authorized satellites, binding cell %.1f°N, %g:1 cap)",
				sys.DisplayName, sys.AuthorizedSatellites, sys.BindingLatDeg, r.MaxOversub),
			"fleet", "satellites", "required spread", "served fraction", "$/loc/month")
		for _, p := range sys.Points {
			t.AddRow(fmt.Sprintf("%.0f%%", 100*p.FleetFraction), p.Satellites,
				fmt.Sprintf("%.1f", p.RequiredSpread),
				fmt.Sprintf("%.4f", p.ServedFraction),
				fmt.Sprintf("$%.0f", p.MonthlyPerLocationUSD))
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		if sys.Tail.LocationsGained > 0 {
			fmt.Fprintf(w, "%s diminishing-returns tail: +%d satellites buy %d more locations at $%.0f per location per month sustaining.\n\n",
				sys.DisplayName, sys.Tail.AdditionalSatellites, sys.Tail.LocationsGained,
				sys.Tail.MonthlyPerLocationUSD)
		}
	}
	return nil
}

func renderXConst(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.CrossConstellationResult]("xconst", v)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Cross-constellation — closing the divide under the 100/20 benchmark (%g:1 cap)", r.MaxOversub),
		"system", "authorized", "required", "spread", "served fraction", "capex ($B)", "$/loc/month")
	for _, row := range r.Rows {
		t.AddRow(row.DisplayName, row.AuthorizedSatellites, row.RequiredSatellites,
			fmt.Sprintf("%.1f", row.RequiredSpread),
			fmt.Sprintf("%.4f", row.ServedFraction),
			fmt.Sprintf("%.1f", row.FleetCapexUSD/1e9),
			fmt.Sprintf("$%.0f", row.MonthlyPerLocationUSD))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "cheapest serving system: %s — every system hits the same per-cell cap; cost moves, the divide does not.\n", r.Cheapest)
	return nil
}

func renderXRegion(ctx context.Context, w io.Writer, m leodivide.Model, ds *leodivide.Dataset, v any) error {
	r, err := resultAs[leodivide.CrossRegionResult]("xregion", v)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Cross-region — which constraint binds where (%s, %g:1 cap, %.0f%% of income)",
			r.System, r.MaxOversub, 100*r.AffordShare),
		"region", "locations", "cells", "binding lat", "required sats", "spread", "served", "affordable", "binds")
	for _, row := range r.Rows {
		t.AddRow(row.DisplayName, row.TotalLocations, row.NumCells,
			fmt.Sprintf("%.1f°", row.BindingLatDeg),
			row.RequiredSatellites,
			fmt.Sprintf("%.1f", row.RequiredSpread),
			fmt.Sprintf("%.4f", row.ServedFraction),
			fmt.Sprintf("%.3f", row.AffordableFraction),
			row.BindingConstraint)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "an inclined fleet thins toward the equator: the equatorial geography pays in satellites while low incomes bind; the dense mid-latitude one hits the per-cell cap first.\n")
	return nil
}

func runStability(ctx context.Context, w io.Writer, m leodivide.Model) error {
	r, err := m.Stability(ctx, 5, 0.25)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Stability — headline results across %d seeds (quarter-scale datasets)", r.Seeds),
		"quantity", "mean", "stddev", "min", "max", "rel spread")
	add := func(name string, s leodivide.StabilityStat, scale float64, unit string) {
		t.AddRow(name,
			fmt.Sprintf("%.4g%s", s.Mean*scale, unit),
			fmt.Sprintf("%.2g", s.StdDev*scale),
			fmt.Sprintf("%.4g", s.Min*scale),
			fmt.Sprintf("%.4g", s.Max*scale),
			fmt.Sprintf("%.2f%%", 100*s.RelSpread()))
	}
	add("constellation (beamspread 2, 20:1)", r.Table2Spread2, 1, "")
	add("unaffordable fraction", r.UnaffordableFraction, 100, "%")
	add("served fraction at 20:1", r.ServedFractionAt20, 100, "%")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "pinned anchors (totals, peaks, quantiles) are identical across seeds; the residual spread is the unpinned geography.")
	return nil
}
