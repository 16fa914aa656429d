package leodivide

import (
	"context"
	"math"
	"testing"

	"leodivide/internal/afford"
	"leodivide/internal/census"
)

// lognormalCDFOracle is the lognormal CDF the dispersed evaluations
// used before they took logs once: P[X <= x] for X lognormal with the
// given median and log-σ, with both logs taken on every call.
func lognormalCDFOracle(x, median, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	if median <= 0 || sigma <= 0 {
		if x < median {
			return 0
		}
		return 1
	}
	z := (math.Log(x) - math.Log(median)) / sigma
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// dispersedOracle is DispersedInput.Evaluate over the per-call-Log CDF.
func dispersedOracle(counties []census.CountyIncome, sigma float64, p afford.Plan, s *afford.Subsidy, share float64) afford.Result {
	threshold := afford.IncomeThresholdUSD(p, s, share)
	below, total := 0.0, 0.0
	for _, c := range counties {
		below += c.Weight * lognormalCDFOracle(threshold, c.MedianHouseholdIncomeUSD, sigma)
		total += c.Weight
	}
	return afford.Result{
		Plan: p, Subsidy: s, Share: share, IncomeThresholdUSD: threshold,
		UnaffordableLocations: below, UnaffordableFraction: below / total,
	}
}

// lifelineOracle is DispersedInput.EvaluateLifelineAware over the
// per-call-Log CDF.
func lifelineOracle(counties []census.CountyIncome, sigma float64, p afford.Plan, share float64, householdSize int) afford.LifelineAwareResult {
	lifeline := afford.Lifeline()
	tFull := afford.IncomeThresholdUSD(p, nil, share)
	tSub := afford.IncomeThresholdUSD(p, &lifeline, share)
	cut := census.LifelineEligibilityFPLMultiple * census.FederalPovertyLevelUSD(householdSize)
	unaffordable, eligible, rescued, total := 0.0, 0.0, 0.0, 0.0
	for _, c := range counties {
		total += c.Weight
		med := c.MedianHouseholdIncomeUSD
		pEligible := lognormalCDFOracle(cut, med, sigma)
		eligible += c.Weight * pEligible
		if tSub <= cut {
			pBelowSub := lognormalCDFOracle(tSub, med, sigma)
			rescued += c.Weight * math.Max(0, pEligible-pBelowSub)
			pIneligibleGap := math.Max(0, lognormalCDFOracle(tFull, med, sigma)-pEligible)
			unaffordable += c.Weight * (pBelowSub + pIneligibleGap)
		} else {
			unaffordable += c.Weight * lognormalCDFOracle(tFull, med, sigma)
		}
	}
	return afford.LifelineAwareResult{
		Result: afford.Result{
			Plan: p, Subsidy: &lifeline, Share: share, IncomeThresholdUSD: tSub,
			UnaffordableLocations: unaffordable, UnaffordableFraction: unaffordable / total,
		},
		EligibleFraction:      eligible / total,
		SubsidyUsableFraction: rescued / total,
	}
}

// sameBits reports whether two results carry bit-identical numbers.
func sameBits(a, b afford.LifelineAwareResult) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Share, b.Share) && eq(a.IncomeThresholdUSD, b.IncomeThresholdUSD) &&
		eq(a.UnaffordableLocations, b.UnaffordableLocations) &&
		eq(a.UnaffordableFraction, b.UnaffordableFraction) &&
		eq(a.EligibleFraction, b.EligibleFraction) &&
		eq(a.SubsidyUsableFraction, b.SubsidyUsableFraction)
}

// checkDispersedBits fails t unless the dispersed evaluations of table
// equal the per-call-Log oracle bit for bit, for every plan option,
// share, household size and σ given.
func checkDispersedBits(t *testing.T, name string, table *census.Table, plans []afford.PlanOption, shares []float64) {
	t.Helper()
	counties := table.Counties()
	for _, sigma := range []float64{0.3, 0.55, 0.9} {
		in, err := afford.NewDispersedInput(table, sigma)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, share := range shares {
			for _, opt := range plans {
				got := in.Evaluate(opt.Plan, opt.Subsidy, share)
				want := dispersedOracle(counties, sigma, opt.Plan, opt.Subsidy, share)
				if !sameBits(afford.LifelineAwareResult{Result: got}, afford.LifelineAwareResult{Result: want}) {
					t.Errorf("%s σ=%v share=%v %s: Evaluate = %+v, oracle %+v", name, sigma, share, planLabel(opt), got, want)
				}
				for size := 1; size <= 8; size++ {
					got := in.EvaluateLifelineAware(opt.Plan, share, size)
					want := lifelineOracle(counties, sigma, opt.Plan, share, size)
					if !sameBits(got, want) {
						t.Errorf("%s σ=%v share=%v %s size %d: EvaluateLifelineAware = %+v, oracle %+v",
							name, sigma, share, planLabel(opt), size, got, want)
					}
				}
			}
		}
	}
}

// TestDispersedMatchesOracle: taking each county's log median once per
// input and each threshold's log once per call changes no bit of the
// dispersed evaluations, over every county of the three regions'
// income tables and the edge cases of the CDF's guards.
func TestDispersedMatchesOracle(t *testing.T) {
	ctx := context.Background()
	shares := []float64{0.02, 0.025, 0.03}
	plans := afford.PaperComparison()
	for _, region := range []string{"us", "brazil-rural", "taipei-dense"} {
		d, err := GenerateDataset(ctx, WithSeed(1), WithScale(0.25), WithRegion(region))
		if err != nil {
			t.Fatal(err)
		}
		checkDispersedBits(t, region, d.Incomes, plans, shares)
	}

	// Medians at and below zero take the step branch, a free plan
	// gives a threshold of zero, and share 0 one of +Inf.
	edges := census.NewTable([]census.CountyIncome{
		{FIPS: "1", MedianHouseholdIncomeUSD: 0, Weight: 10},
		{FIPS: "2", MedianHouseholdIncomeUSD: -5000, Weight: 20},
		{FIPS: "3", MedianHouseholdIncomeUSD: 45000, Weight: 30},
		{FIPS: "4", MedianHouseholdIncomeUSD: 120000, Weight: 40},
	})
	edgePlans := append(plans, afford.PlanOption{Plan: afford.Plan{Name: "free"}})
	checkDispersedBits(t, "edges", edges, edgePlans, []float64{0, 0.02})
	if th := afford.IncomeThresholdUSD(afford.StarlinkResidential(), nil, 0); !math.IsInf(th, 1) {
		t.Fatalf("share 0 threshold = %v, want +Inf", th)
	}
}
