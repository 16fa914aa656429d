package leodivide

// Extension experiments beyond the paper's published artifacts: fleet
// assessments against the real Gen1/Gen2 shell tables, and the
// dispersion-refined affordability analysis. DESIGN.md §4 indexes them
// as FLEET and REFINED.

import (
	"context"

	"leodivide/internal/afford"
	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/econ"
	"leodivide/internal/traffic"
)

// FleetsResult compares the authorized Starlink generations against
// the sizing requirement.
type FleetsResult struct {
	Gen1, Gen2 core.FleetAssessment
}

// AssessFleets evaluates Starlink Gen1 (4,408 satellites) and Gen2
// (29,988) against the capped-oversubscription sizing requirement at
// the paper's beamspread factors: an extension answering "does the
// full Gen2 authorization reach the >40,000-satellite bar?"
func (m Model) AssessFleets(ctx context.Context, d *Dataset) (FleetsResult, error) {
	dist := d.Distribution()
	gen1, err := m.Capacity.AssessFleet(ctx, dist, constellation.StarlinkGen1(), paperTable2Spreads[:], m.MaxOversub)
	if err != nil {
		return FleetsResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return FleetsResult{}, err
	}
	gen2, err := m.Capacity.AssessFleet(ctx, dist, constellation.StarlinkGen2(), paperTable2Spreads[:], m.MaxOversub)
	if err != nil {
		return FleetsResult{}, err
	}
	return FleetsResult{Gen1: gen1, Gen2: gen2}, nil
}

// RefinedFig4Result carries the dispersion-refined affordability
// analysis alongside the paper's median-only numbers.
type RefinedFig4Result struct {
	// SigmaLog is the within-county lognormal shape used.
	SigmaLog float64
	// HouseholdSize parameterizes the Lifeline eligibility cutoff.
	HouseholdSize int
	// MedianOnly is the paper's assumption (every household at the
	// county median).
	MedianOnly afford.Result
	// Dispersed spreads household incomes lognormally within counties.
	Dispersed afford.Result
	// LifelineAware additionally restricts the subsidy to eligible
	// households (income ≤ 135% FPL).
	LifelineAware afford.LifelineAwareResult
	// TotalLocations is the dataset total.
	TotalLocations float64
}

// refinedHouseholdSize is the household the Lifeline eligibility
// cutoff (135% of the federal poverty line) is evaluated for.
const refinedHouseholdSize = 3

// Fig4Refined runs the affordability analysis with within-county
// income dispersion (afford.DefaultIncomeSigmaLog) and
// eligibility-aware Lifeline for a household of three.
func (m Model) Fig4Refined(ctx context.Context, d *Dataset) (RefinedFig4Result, error) {
	if err := ctx.Err(); err != nil {
		return RefinedFig4Result{}, err
	}
	in, err := d.affordInput()
	if err != nil {
		return RefinedFig4Result{}, err
	}
	din, err := d.dispersedInput()
	if err != nil {
		return RefinedFig4Result{}, err
	}
	plan := afford.StarlinkResidential()
	return RefinedFig4Result{
		SigmaLog:       afford.DefaultIncomeSigmaLog,
		HouseholdSize:  refinedHouseholdSize,
		MedianOnly:     in.Evaluate(plan, nil, m.AffordShare),
		Dispersed:      din.Evaluate(plan, nil, m.AffordShare),
		LifelineAware:  din.EvaluateLifelineAware(plan, m.AffordShare, refinedHouseholdSize),
		TotalLocations: din.TotalLocations(),
	}, nil
}

// BusyHourResult extends the capacity analysis into the time domain.
type BusyHourResult struct {
	// Profile facts.
	PeakHourLocal int
	PeakFactor    float64
	// Stagger is the time-zone staggering analysis: cell vs satellite
	// footprint vs national peak-to-mean ratios.
	Stagger traffic.StaggerAnalysis
	// PerUserBusyHourMbps is the average throughput a location in the
	// median / p90 / peak cell sees at the busy hour when its cell
	// shares one spread beam (beamspread from the model's Table 2
	// break-even for the current constellation, ≈10).
	MedianCellMbps, P90CellMbps, PeakCellMbps float64
	// Spread is the beamspread factor the per-user rates assume.
	Spread float64
}

// BusyHour analyses the diurnal dimension of P2: how much (little)
// time-zone staggering relieves a LEO constellation, and what per-user
// throughput the busy hour leaves in dense cells.
func (m Model) BusyHour(ctx context.Context, d *Dataset) (BusyHourResult, error) {
	if err := ctx.Err(); err != nil {
		return BusyHourResult{}, err
	}
	profile := traffic.DefaultProfile()
	stagger, err := traffic.AnalyzeStagger(profile, d.Cells, 8.5)
	if err != nil {
		return BusyHourResult{}, err
	}
	dist := d.Distribution()
	const spread = 10 // ≈ today's constellation at 20:1 (Table 2)
	perBeamGbps := m.Capacity.Beams.SpreadCellCapacityGbps(spread)
	rate := func(locations int) float64 {
		if locations <= 0 {
			return 0
		}
		// All of a cell's locations share the spread beam at the busy
		// hour; the diurnal peak concentrates usage by PeakFactor
		// relative to the daily mean.
		return perBeamGbps * 1000 / float64(locations)
	}
	return BusyHourResult{
		PeakHourLocal:  profile.PeakHour(),
		PeakFactor:     profile.PeakFactor(),
		Stagger:        stagger,
		MedianCellMbps: rate(dist.Quantile(0.5)),
		P90CellMbps:    rate(dist.Quantile(0.9)),
		PeakCellMbps:   rate(dist.Peak().Locations),
		Spread:         spread,
	}, nil
}

// EconomicsResult prices the paper's capacity findings.
type EconomicsResult struct {
	Model econ.CostModel
	// Scenarios prices the Table 2 sizing results (capped 20:1).
	Scenarios []econ.ScenarioCost
	// Tail prices the Figure 3 steps at beamspread 10.
	Tail []econ.TailCost
}

// Economics converts satellite counts into dollars: constellation
// capex, sustaining cost per served location, and the per-location
// price of the diminishing-returns tail.
func (m Model) Economics(ctx context.Context, d *Dataset) (EconomicsResult, error) {
	cost := econ.FromSystemCost(m.System.Cost)
	dist := d.Distribution()
	served := dist.TotalLocations() -
		dist.ExcessAbove(m.Capacity.Beams.MaxServableLocations(m.MaxOversub))
	out := EconomicsResult{Model: cost}
	for _, spread := range paperTable2Spreads {
		if err := ctx.Err(); err != nil {
			return EconomicsResult{}, err
		}
		res := m.Capacity.Size(dist, core.CappedOversub, spread, m.MaxOversub)
		sc, err := cost.PriceScenario(res.Satellites, served)
		if err != nil {
			return EconomicsResult{}, err
		}
		out.Scenarios = append(out.Scenarios, sc)
	}
	fig3, err := m.fig3At(ctx, d, []float64{10})
	if err != nil {
		return EconomicsResult{}, err
	}
	if len(fig3) > 0 {
		tail, err := cost.PriceSteps(fig3[0].Steps)
		if err != nil {
			return EconomicsResult{}, err
		}
		out.Tail = tail
	}
	return out, nil
}
