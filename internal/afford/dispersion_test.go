package afford

import (
	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/census"
)

func dispersedInput(t *testing.T, sigma float64) *DispersedInput {
	t.Helper()
	table := census.NewTable([]census.CountyIncome{
		{FIPS: "1", MedianHouseholdIncomeUSD: 30000, Weight: 100},
		{FIPS: "2", MedianHouseholdIncomeUSD: 60000, Weight: 300},
		{FIPS: "3", MedianHouseholdIncomeUSD: 90000, Weight: 600},
	})
	in, err := NewDispersedInput(table, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// cdf is lognormalCDFLog with both logs taken here.
func cdf(x, median, sigma float64) float64 {
	return lognormalCDFLog(x, math.Log(x), median, math.Log(median), sigma)
}

func TestLognormalCDF(t *testing.T) {
	// Median property: P[X <= median] = 0.5.
	if got := cdf(60000, 60000, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF at median = %v, want 0.5", got)
	}
	if got := cdf(0, 60000, 0.5); got != 0 {
		t.Errorf("CDF at 0 = %v", got)
	}
	// Monotone in x.
	if cdf(50000, 60000, 0.5) >= cdf(70000, 60000, 0.5) {
		t.Error("CDF not monotone")
	}
	// Degenerate sigma behaves like a step at the median.
	if cdf(59999, 60000, 0) != 0 || cdf(60001, 60000, 0) != 1 {
		t.Error("zero-sigma CDF should step at the median")
	}
}

func TestDispersedSmoothsTheStep(t *testing.T) {
	sharp := testInput(t) // median-only model from afford_test.go
	smooth := dispersedInput(t, 0.55)

	p := StarlinkResidential() // threshold $72,000 at 2%
	rSharp := sharp.Evaluate(p, nil, 0.02)
	rSmooth := smooth.Evaluate(p, nil, 0.02)

	// Median-only: counties 1+2 (weight 400) are fully unaffordable.
	// Dispersion moves mass both ways: some households in county 3
	// fall below $72k, some in county 2 rise above it.
	if rSmooth.UnaffordableLocations == rSharp.UnaffordableLocations {
		t.Error("dispersion changed nothing")
	}
	if rSmooth.UnaffordableLocations < 200 || rSmooth.UnaffordableLocations > 800 {
		t.Errorf("dispersed unaffordable = %v, want a smoothed value", rSmooth.UnaffordableLocations)
	}
}

// Property: dispersion preserves totals and keeps results in range, and
// unaffordability still rises with price.
func TestDispersedMonotoneInPriceProperty(t *testing.T) {
	in := dispersedInput(t, 0.55)
	f := func(p1Raw, p2Raw uint8) bool {
		p1 := Plan{Name: "a", MonthlyUSD: 10 + float64(p1Raw)}
		p2 := Plan{Name: "b", MonthlyUSD: p1.MonthlyUSD + 1 + float64(p2Raw)}
		r1 := in.Evaluate(p1, nil, 0.02)
		r2 := in.Evaluate(p2, nil, 0.02)
		return r1.UnaffordableLocations <= r2.UnaffordableLocations &&
			r1.UnaffordableFraction >= 0 && r2.UnaffordableFraction <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLifelineAware(t *testing.T) {
	in := dispersedInput(t, 0.55)
	p := StarlinkResidential()
	r := in.EvaluateLifelineAware(p, 0.02, 3)

	if r.EligibleFraction <= 0 || r.EligibleFraction >= 1 {
		t.Errorf("eligible fraction = %v", r.EligibleFraction)
	}
	// The Starlink subsidized threshold ($66,450) is far above the
	// 135%-FPL cutoff (~$42k for a 3-person household): the subsidy is
	// unusable, so the Lifeline-aware result equals full price.
	full := in.Evaluate(p, nil, 0.02)
	if math.Abs(r.UnaffordableLocations-full.UnaffordableLocations) > 1e-9 {
		t.Errorf("unusable subsidy should leave unaffordability at full price: %v vs %v",
			r.UnaffordableLocations, full.UnaffordableLocations)
	}
	if r.SubsidyUsableFraction != 0 {
		t.Errorf("subsidy usable fraction = %v, want 0", r.SubsidyUsableFraction)
	}

	// A cheap plan whose subsidized threshold falls below the cutoff
	// does get rescued households.
	cheap := Plan{Name: "cheap", MonthlyUSD: 30}
	rc := in.EvaluateLifelineAware(cheap, 0.02, 3)
	if rc.SubsidyUsableFraction <= 0 {
		t.Errorf("cheap-plan rescue fraction = %v, want > 0", rc.SubsidyUsableFraction)
	}
	// And the Lifeline-aware result must beat full price.
	fullCheap := in.Evaluate(cheap, nil, 0.02)
	if rc.UnaffordableLocations >= fullCheap.UnaffordableLocations {
		t.Errorf("usable subsidy did not reduce unaffordability: %v vs %v",
			rc.UnaffordableLocations, fullCheap.UnaffordableLocations)
	}
	// But it can never beat the everyone-gets-it assumption the paper
	// uses.
	lifeline := Lifeline()
	everyone := in.Evaluate(cheap, &lifeline, 0.02)
	if rc.UnaffordableLocations < everyone.UnaffordableLocations-1e-9 {
		t.Error("eligibility-aware result beat universal subsidy")
	}
}

func TestNewDispersedInputDefaults(t *testing.T) {
	table := census.NewTable([]census.CountyIncome{
		{FIPS: "1", MedianHouseholdIncomeUSD: 50000, Weight: 10},
	})
	in, err := NewDispersedInput(table, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.sigma != DefaultIncomeSigmaLog {
		t.Errorf("sigma = %v, want default", in.sigma)
	}
	if _, err := NewDispersedInput(census.NewTable(nil), 0.5); err == nil {
		t.Error("empty table should fail")
	}
}
