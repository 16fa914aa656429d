package afford

import (
	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/census"
)

func TestPlanConstants(t *testing.T) {
	if p := StarlinkResidential(); p.MonthlyUSD != 120 {
		t.Errorf("Starlink Residential = $%v, want $120", p.MonthlyUSD)
	}
	if p := Xfinity300(); p.MonthlyUSD != 40 || p.DownMbps != 300 {
		t.Errorf("Xfinity = %+v", p)
	}
	if p := SpectrumPremier(); p.MonthlyUSD != 50 || p.DownMbps != 500 {
		t.Errorf("Spectrum = %+v", p)
	}
	if s := Lifeline(); s.MonthlyUSD != 9.25 {
		t.Errorf("Lifeline = $%v, want $9.25", s.MonthlyUSD)
	}
}

func TestIncomeThresholds(t *testing.T) {
	// The paper's headline thresholds: $72,000 without subsidy and
	// $66,450 with Lifeline.
	starlink := StarlinkResidential()
	if got := IncomeThresholdUSD(starlink, nil, 0.02); got != 72000 {
		t.Errorf("threshold = %v, want 72000", got)
	}
	lifeline := Lifeline()
	if got := IncomeThresholdUSD(starlink, &lifeline, 0.02); got != 66450 {
		t.Errorf("threshold w/ Lifeline = %v, want 66450", got)
	}
	if got := IncomeThresholdUSD(starlink, nil, 0); !math.IsInf(got, 1) {
		t.Errorf("zero share threshold = %v, want +Inf", got)
	}
}

func TestEffectivePrice(t *testing.T) {
	big := Subsidy{Name: "huge", MonthlyUSD: 500}
	if got := EffectiveMonthlyUSD(Xfinity300(), &big); got != 0 {
		t.Errorf("over-subsidized price = %v, want 0", got)
	}
	if got := EffectiveMonthlyUSD(Xfinity300(), nil); got != 40 {
		t.Errorf("unsubsidized price = %v, want 40", got)
	}
}

// testInput builds an input with three counties at known incomes and
// weights.
func testInput(t *testing.T) *Input {
	t.Helper()
	table := census.NewTable([]census.CountyIncome{
		{FIPS: "1", MedianHouseholdIncomeUSD: 30000, Weight: 100},
		{FIPS: "2", MedianHouseholdIncomeUSD: 60000, Weight: 300},
		{FIPS: "3", MedianHouseholdIncomeUSD: 90000, Weight: 600},
	})
	in, err := NewInput(table)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEvaluate(t *testing.T) {
	in := testInput(t)
	if got := in.TotalLocations(); got != 1000 {
		t.Fatalf("TotalLocations = %v", got)
	}
	// Starlink at 2%: threshold $72,000 → counties 1 and 2 cannot
	// afford (weight 400).
	r := in.Evaluate(StarlinkResidential(), nil, 0.02)
	if r.UnaffordableLocations != 400 {
		t.Errorf("unaffordable = %v, want 400", r.UnaffordableLocations)
	}
	if math.Abs(r.UnaffordableFraction-0.4) > 1e-12 {
		t.Errorf("fraction = %v, want 0.4", r.UnaffordableFraction)
	}
	// A county exactly at the threshold affords the plan: $100/month at
	// 2% needs $60,000.
	exact := Plan{Name: "exact", MonthlyUSD: 100}
	r = in.Evaluate(exact, nil, 0.02)
	if r.UnaffordableLocations != 100 {
		t.Errorf("unaffordable at exact threshold = %v, want 100", r.UnaffordableLocations)
	}
}

func TestCurve(t *testing.T) {
	in := testInput(t)
	curve := in.Curve(StarlinkResidential(), nil, 0.05, 50)
	if len(curve) != 50 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Count > curve[i-1].Count {
			t.Fatal("curve not nonincreasing")
		}
	}
	// At a 4.8% share even the $30k county affords $120/mo: 1440/30000
	// = 0.048.
	last := curve[len(curve)-1]
	if last.Count != 0 {
		t.Errorf("curve tail = %v, want 0", last.Count)
	}
	if z := in.ZeroShare(StarlinkResidential(), nil); math.Abs(z-0.048) > 1e-9 {
		t.Errorf("ZeroShare = %v, want 0.048", z)
	}
}

func TestSubsidyToAfford(t *testing.T) {
	in := testInput(t)
	p := StarlinkResidential()
	// Full coverage: the poorest county ($30k) needs price ≤ $50/mo at
	// 2%, so a $70 subsidy.
	if got := in.SubsidyToAfford(p, 0.02, 1.0); math.Abs(got-70) > 1e-9 {
		t.Errorf("SubsidyToAfford(1.0) = %v, want 70", got)
	}
	// 50% coverage: the $90k county alone (60% of weight) affords at
	// $150/mo ≥ $120, so no subsidy needed. (At exactly 60% the solver
	// is conservative at the quantile boundary and prices to the $60k
	// county.)
	if got := in.SubsidyToAfford(p, 0.02, 0.5); got != 0 {
		t.Errorf("SubsidyToAfford(0.5) = %v, want 0", got)
	}
	if got := in.SubsidyToAfford(p, 0.02, 0.6); math.Abs(got-20) > 1e-9 {
		t.Errorf("SubsidyToAfford(0.6) = %v, want 20 (conservative boundary)", got)
	}
	if got := in.SubsidyToAfford(p, 0.02, 0); got != 0 {
		t.Errorf("SubsidyToAfford(0) = %v, want 0", got)
	}
}

// Property: the subsidy returned by SubsidyToAfford actually achieves
// the target fraction.
func TestSubsidyToAffordProperty(t *testing.T) {
	in := testInput(t)
	p := StarlinkResidential()
	f := func(fracRaw uint8) bool {
		target := float64(fracRaw) / 255
		sub := in.SubsidyToAfford(p, 0.02, target)
		s := Subsidy{Name: "solve", MonthlyUSD: sub}
		r := in.Evaluate(p, &s, 0.02)
		return 1-r.UnaffordableFraction >= target-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewInputErrors(t *testing.T) {
	if _, err := NewInput(census.NewTable(nil)); err == nil {
		t.Error("empty table should fail")
	}
}

func TestACP(t *testing.T) {
	acp := ACP()
	if acp.MonthlyUSD != 30 {
		t.Errorf("ACP = $%v, want $30", acp.MonthlyUSD)
	}
	// ACP moves the Starlink threshold from $72,000 to $54,000.
	if got := IncomeThresholdUSD(StarlinkResidential(), &acp, 0.02); got != 54000 {
		t.Errorf("ACP threshold = %v, want 54000", got)
	}
	in := testInput(t)
	withACP := in.Evaluate(StarlinkResidential(), &acp, 0.02)
	without := in.Evaluate(StarlinkResidential(), nil, 0.02)
	if withACP.UnaffordableLocations >= without.UnaffordableLocations {
		t.Error("ACP did not improve affordability")
	}
}

func TestCatalog(t *testing.T) {
	catalog := Catalog()
	if len(catalog) < 6 {
		t.Fatalf("catalog has %d plans", len(catalog))
	}
	byName := map[string]CatalogPlan{}
	for _, p := range catalog {
		if p.MonthlyUSD <= 0 || p.DownMbps <= 0 {
			t.Errorf("%s: degenerate plan", p.Name)
		}
		byName[p.Name] = p
	}
	// Starlink and the cable plans qualify; GEO satellite and DSL do
	// not — the paper's point that only some technologies can close
	// the gap at all.
	for _, name := range []string{"Starlink Residential", "Xfinity 300", "Spectrum Internet Premier"} {
		if !byName[name].MeetsBenchmark() {
			t.Errorf("%s should meet the benchmark", name)
		}
	}
	for _, name := range []string{"HughesNet Select", "Viasat Unleashed", "Rural DSL (typical)"} {
		if byName[name].MeetsBenchmark() {
			t.Errorf("%s should not meet the benchmark", name)
		}
	}
	// GEO plans fail on latency even when download would pass at 100+.
	geoPlan := byName["Viasat Unleashed"]
	geoPlan.DownMbps, geoPlan.UpMbps = 150, 25
	if geoPlan.MeetsBenchmark() {
		t.Error("GEO latency should disqualify regardless of speed")
	}
	qualifying := 0
	for _, p := range Catalog() {
		if p.MeetsBenchmark() {
			qualifying++
		}
	}
	if qualifying != 4 {
		t.Errorf("%d qualifying plans, want 4", qualifying)
	}
}

func TestEvaluateCatalog(t *testing.T) {
	in := testInput(t)
	results := in.EvaluateCatalog(0.02)
	if len(results) != len(Catalog()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Qualifies != r.MeetsBenchmark() {
			t.Errorf("%s: qualification flag mismatch", r.Plan.Name)
		}
		if r.Afford.UnaffordableFraction < 0 || r.Afford.UnaffordableFraction > 1 {
			t.Errorf("%s: fraction %v", r.Name, r.Afford.UnaffordableFraction)
		}
	}
	// The cheap-but-unqualifying GEO/DSL plans are affordable but
	// cannot close the gap; Starlink qualifies but is unaffordable for
	// the low-income counties — the paper's double bind.
	var starlink, dsl CatalogResult
	for _, r := range results {
		switch r.Name {
		case "Starlink Residential":
			starlink = r
		case "Rural DSL (typical)":
			dsl = r
		}
	}
	if !starlink.Qualifies || starlink.Afford.UnaffordableFraction <= dsl.Afford.UnaffordableFraction {
		t.Errorf("double bind not visible: starlink %+v dsl %+v",
			starlink.Afford.UnaffordableFraction, dsl.Afford.UnaffordableFraction)
	}
	if dsl.Qualifies {
		t.Error("DSL should not qualify")
	}
}
