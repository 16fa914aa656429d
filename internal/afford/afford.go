// Package afford implements the paper's affordability analysis: given
// the county median incomes of un(der)served locations and a broadband
// plan's monthly price, it computes the fraction (and count) of
// locations for which the plan exceeds the affordability threshold —
// 2% of monthly household income, the UN Broadband Commission / A4AI
// "1 for 2"-style benchmark the paper adopts.
package afford

import (
	"context"
	"fmt"
	"math"

	"leodivide/internal/census"
	"leodivide/internal/par"
	"leodivide/internal/stats"
)

// DefaultAffordabilityShare is the A4AI-derived threshold: service
// should cost no more than 2% of monthly household income.
const DefaultAffordabilityShare = 0.02

// Plan is one broadband service offering.
type Plan struct {
	Name       string
	MonthlyUSD float64
	DownMbps   float64
	UpMbps     float64
}

// The plans the paper compares.
func StarlinkResidential() Plan {
	return Plan{Name: "Starlink Residential", MonthlyUSD: 120, DownMbps: 150, UpMbps: 20}
}

func Xfinity300() Plan {
	return Plan{Name: "Xfinity 300", MonthlyUSD: 40, DownMbps: 300, UpMbps: 20}
}

func SpectrumPremier() Plan {
	return Plan{Name: "Spectrum Internet Premier", MonthlyUSD: 50, DownMbps: 500, UpMbps: 20}
}

// Subsidy reduces a plan's effective monthly price.
type Subsidy struct {
	Name       string
	MonthlyUSD float64
}

// Lifeline is the federal Lifeline broadband subsidy.
func Lifeline() Subsidy {
	return Subsidy{Name: "Lifeline", MonthlyUSD: census.LifelineMonthlySubsidyUSD}
}

// ACP is the Affordable Connectivity Program's $30/month benefit — the
// broader pandemic-era subsidy that lapsed in 2024. Including it lets
// policy analyses ask what the affordability picture would have looked
// like had Congress renewed it.
func ACP() Subsidy {
	return Subsidy{Name: "ACP", MonthlyUSD: 30}
}

// EffectiveMonthlyUSD returns the plan price after the subsidy (nil for
// none). Prices never go below zero.
func EffectiveMonthlyUSD(p Plan, s *Subsidy) float64 {
	price := p.MonthlyUSD
	if s != nil {
		price -= s.MonthlyUSD
	}
	if price < 0 {
		price = 0
	}
	return price
}

// IncomeThresholdUSD returns the minimum annual household income at
// which the (possibly subsidized) plan is affordable under the given
// share-of-income threshold: 12·price/share.
func IncomeThresholdUSD(p Plan, s *Subsidy, share float64) float64 {
	if share <= 0 {
		return math.Inf(1)
	}
	return 12 * EffectiveMonthlyUSD(p, s) / share
}

// Input is the location-weighted income distribution the evaluation
// runs over: one entry per county with its median income and the count
// of un(der)served locations attributed to it.
type Input struct {
	weighted *stats.WeightedCDF
	total    float64
}

// NewInput builds the evaluation input from a census table whose county
// Weight fields carry location counts.
func NewInput(t *census.Table) (*Input, error) {
	counties := t.Counties()
	samples := make([]stats.WeightedSample, 0, len(counties))
	for _, c := range counties {
		samples = append(samples, stats.WeightedSample{
			Value:  c.MedianHouseholdIncomeUSD,
			Weight: c.Weight,
		})
	}
	w, err := stats.NewWeightedCDF(samples)
	if err != nil {
		return nil, fmt.Errorf("afford: %w", err)
	}
	return &Input{weighted: w, total: w.TotalWeight()}, nil
}

// TotalLocations returns the location count behind the input.
func (in *Input) TotalLocations() float64 { return in.total }

// Result is the affordability outcome for one plan/subsidy pair.
type Result struct {
	Plan               Plan
	Subsidy            *Subsidy
	Share              float64
	IncomeThresholdUSD float64
	// UnaffordableLocations is the number of locations whose county
	// median income falls below the threshold.
	UnaffordableLocations float64
	// UnaffordableFraction is the same as a fraction of all locations.
	UnaffordableFraction float64
}

// Evaluate computes the affordability result for a plan under a share
// threshold.
func (in *Input) Evaluate(p Plan, s *Subsidy, share float64) Result {
	threshold := IncomeThresholdUSD(p, s, share)
	// Locations below the threshold cannot afford the plan. Use a
	// strictly-below comparison: a county exactly at the threshold
	// affords the plan.
	below := in.total - in.weighted.WeightGT(threshold-1e-9)
	return Result{
		Plan:                  p,
		Subsidy:               s,
		Share:                 share,
		IncomeThresholdUSD:    threshold,
		UnaffordableLocations: below,
		UnaffordableFraction:  below / in.total,
	}
}

// CurvePoint is one point of the Figure-4 style curve: at income share
// x, Count locations pay more than x of their monthly income for the
// plan.
type CurvePoint struct {
	Share float64
	Count float64
}

// Curve traces, for shares from 0 to maxShare in n steps, the number of
// locations for which the plan costs more than that share of monthly
// income. This reproduces the paper's Figure 4 series for one plan.
func (in *Input) Curve(p Plan, s *Subsidy, maxShare float64, n int) []CurvePoint {
	if n < 2 {
		n = 2
	}
	price := EffectiveMonthlyUSD(p, s)
	out := make([]CurvePoint, 0, n)
	for i := 0; i < n; i++ {
		share := maxShare * float64(i+1) / float64(n)
		// cost/monthlyIncome > share  ⟺  income < 12·price/share
		threshold := 12 * price / share
		count := in.total - in.weighted.WeightGT(threshold-1e-9)
		out = append(out, CurvePoint{Share: share, Count: count})
	}
	return out
}

// ZeroShare returns the share of income at which the plan's curve
// reaches zero: the share at which even the poorest county affords it.
func (in *Input) ZeroShare(p Plan, s *Subsidy) float64 {
	price := EffectiveMonthlyUSD(p, s)
	minIncome := in.weighted.Quantile(0)
	if minIncome <= 0 {
		return math.Inf(1)
	}
	return 12 * price / minIncome
}

// PlanOption pairs a plan with an optional subsidy.
type PlanOption struct {
	Plan    Plan
	Subsidy *Subsidy
}

// PlanCurves bundles everything Figure 4 needs for one plan option: the
// point evaluation at the affordability threshold, the full share curve,
// and the share at which the curve reaches zero.
type PlanCurves struct {
	Option    PlanOption
	Result    Result
	Curve     []CurvePoint
	ZeroShare float64
}

// EvaluateCurves computes the Figure 4 bundle for each plan option
// concurrently (bounded by workers; see par.Workers), returning results
// in option order. Each option's evaluation is a pure read of the
// weighted CDF, so output is identical at every worker count.
func (in *Input) EvaluateCurves(ctx context.Context, options []PlanOption, share, maxShare float64, n, workers int) ([]PlanCurves, error) {
	return par.Map(ctx, workers, len(options), func(i int) (PlanCurves, error) {
		opt := options[i]
		return PlanCurves{
			Option:    opt,
			Result:    in.Evaluate(opt.Plan, opt.Subsidy, share),
			Curve:     in.Curve(opt.Plan, opt.Subsidy, maxShare, n),
			ZeroShare: in.ZeroShare(opt.Plan, opt.Subsidy),
		}, nil
	})
}

// PaperComparison returns the four plan/subsidy pairs of Figure 4.
func PaperComparison() []PlanOption {
	lifeline := Lifeline()
	return []PlanOption{
		{Plan: Xfinity300()},
		{Plan: SpectrumPremier()},
		{Plan: StarlinkResidential(), Subsidy: &lifeline},
		{Plan: StarlinkResidential()},
	}
}

// SubsidyToAfford returns the monthly subsidy needed to make the plan
// affordable for the given fraction of locations at the share
// threshold. Used by the policy-design example.
func (in *Input) SubsidyToAfford(p Plan, share, targetFraction float64) float64 {
	if targetFraction <= 0 {
		return 0
	}
	if targetFraction > 1 {
		targetFraction = 1
	}
	// The q-quantile income of the *unaffordable from below* fraction:
	// to make fraction f affordable, price must satisfy
	// 12·price/share <= income at quantile (1-f).
	income := in.weighted.Quantile(1 - targetFraction)
	needed := p.MonthlyUSD - share*income/12
	if needed < 0 {
		return 0
	}
	return needed
}
