package afford

import (
	"fmt"
	"math"

	"leodivide/internal/census"
)

// The paper's Figure 4 assumes every household in a county earns the
// county median — a deliberate simplification it flags. This file is
// the refinement extension: household incomes within a county are
// modelled as lognormal around the county median (the standard shape
// for US income microdata), which changes two things:
//
//  1. Rich counties still contain households below the affordability
//     threshold, and poor counties contain households above it, so the
//     unaffordable count is a smooth rather than step function.
//  2. Lifeline eligibility (income ≤ 135% of the Federal Poverty
//     Level) can be applied per household rather than to everyone,
//     which the median-only model cannot express at all.

// DefaultIncomeSigmaLog is the default lognormal shape parameter for
// within-county household income; ≈0.55 matches the dispersion of ACS
// county income distributions.
const DefaultIncomeSigmaLog = 0.55

// lognormalCDFLog returns P[X <= x] for X lognormal with the given median
// and log-σ, given logX = log(x) and logMedian = log(median): a
// threshold's log is taken once per evaluation and a county's once per
// input, not once per (threshold, county) pair.
func lognormalCDFLog(x, logX, median, logMedian, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	if median <= 0 || sigma <= 0 {
		if x < median {
			return 0
		}
		return 1
	}
	z := (logX - logMedian) / sigma
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// DispersedInput evaluates affordability with within-county income
// dispersion. Construct with NewDispersedInput.
type DispersedInput struct {
	counties []census.CountyIncome
	// logMedians[i] is log(counties[i].MedianHouseholdIncomeUSD).
	logMedians []float64
	sigma      float64
	total      float64
}

// NewDispersedInput wraps a census table with a lognormal within-county
// income model. sigma <= 0 selects DefaultIncomeSigmaLog.
func NewDispersedInput(t *census.Table, sigma float64) (*DispersedInput, error) {
	if sigma <= 0 {
		sigma = DefaultIncomeSigmaLog
	}
	counties := t.Counties()
	logMedians := make([]float64, len(counties))
	total := 0.0
	for i, c := range counties {
		logMedians[i] = math.Log(c.MedianHouseholdIncomeUSD)
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("afford: census table has no location weight")
	}
	return &DispersedInput{counties: counties, logMedians: logMedians, sigma: sigma, total: total}, nil
}

// TotalLocations returns the location count behind the input.
func (in *DispersedInput) TotalLocations() float64 { return in.total }

// Evaluate computes the unaffordable count under dispersion: each
// county contributes its weight times the lognormal probability of a
// household income below the plan's threshold.
func (in *DispersedInput) Evaluate(p Plan, s *Subsidy, share float64) Result {
	threshold := IncomeThresholdUSD(p, s, share)
	logT := math.Log(threshold)
	below := 0.0
	for i, c := range in.counties {
		below += c.Weight * lognormalCDFLog(threshold, logT, c.MedianHouseholdIncomeUSD, in.logMedians[i], in.sigma)
	}
	return Result{
		Plan:                  p,
		Subsidy:               s,
		Share:                 share,
		IncomeThresholdUSD:    threshold,
		UnaffordableLocations: below,
		UnaffordableFraction:  below / in.total,
	}
}

// LifelineAwareResult extends Result with the eligibility accounting
// only a dispersed model can produce.
type LifelineAwareResult struct {
	Result
	// EligibleFraction is the fraction of locations whose household
	// income qualifies for Lifeline (≤135% FPL).
	EligibleFraction float64
	// SubsidyUsableFraction is the fraction of locations that are both
	// eligible for the subsidy and able to afford the subsidized price
	// (the households Lifeline actually rescues).
	SubsidyUsableFraction float64
}

// EvaluateLifelineAware computes affordability when Lifeline only
// applies to eligible households: a household affords the plan if
// either its income meets the full-price threshold, or it is
// Lifeline-eligible and meets the subsidized threshold.
func (in *DispersedInput) EvaluateLifelineAware(p Plan, share float64, householdSize int) LifelineAwareResult {
	lifeline := Lifeline()
	tFull := IncomeThresholdUSD(p, nil, share)
	tSub := IncomeThresholdUSD(p, &lifeline, share)
	cut := census.LifelineEligibilityFPLMultiple * census.FederalPovertyLevelUSD(householdSize)
	logFull, logSub, logCut := math.Log(tFull), math.Log(tSub), math.Log(cut)

	unaffordable := 0.0
	eligible := 0.0
	rescued := 0.0
	for i, c := range in.counties {
		med, logMed := c.MedianHouseholdIncomeUSD, in.logMedians[i]
		pEligible := lognormalCDFLog(cut, logCut, med, logMed, in.sigma)
		eligible += c.Weight * pEligible
		if tSub <= cut {
			// Eligible households in [tSub, cut] are rescued by the
			// subsidy; everyone below tSub, and ineligible households
			// below tFull, cannot afford.
			pBelowSub := lognormalCDFLog(tSub, logSub, med, logMed, in.sigma)
			pRescued := math.Max(0, pEligible-pBelowSub)
			rescued += c.Weight * pRescued
			gapHi := lognormalCDFLog(tFull, logFull, med, logMed, in.sigma)
			pIneligibleGap := math.Max(0, gapHi-pEligible)
			unaffordable += c.Weight * (pBelowSub + pIneligibleGap)
		} else {
			// The subsidized price still requires more income than the
			// eligibility cutoff allows: the subsidy is unusable.
			unaffordable += c.Weight * lognormalCDFLog(tFull, logFull, med, logMed, in.sigma)
		}
	}
	return LifelineAwareResult{
		Result: Result{
			Plan:                  p,
			Subsidy:               &lifeline,
			Share:                 share,
			IncomeThresholdUSD:    tSub,
			UnaffordableLocations: unaffordable,
			UnaffordableFraction:  unaffordable / in.total,
		},
		EligibleFraction:      eligible / in.total,
		SubsidyUsableFraction: rescued / in.total,
	}
}
