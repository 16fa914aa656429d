package census

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPovertyLevel(t *testing.T) {
	if got := FederalPovertyLevelUSD(1); got != 15760 {
		t.Errorf("FPL(1) = %v, want 15760", got)
	}
	if got := FederalPovertyLevelUSD(4); got != 31900 {
		t.Errorf("FPL(4) = %v, want 31900", got)
	}
	if got := FederalPovertyLevelUSD(0); got != FederalPovertyLevelUSD(1) {
		t.Error("household size clamps to 1")
	}
}

// TestLifelineEligible pins the Lifeline income cutoff the dispersed
// affordability model applies: 135% of FPL, which is 1.35 × 31,900 =
// 43,065 for a 4-person household.
func TestLifelineEligible(t *testing.T) {
	if got := LifelineEligibilityFPLMultiple * FederalPovertyLevelUSD(4); math.Abs(got-43065) > 1e-9 {
		t.Errorf("Lifeline cutoff for 4 = %v, want 43065", got)
	}
}

func TestIncomeQuantileAnchors(t *testing.T) {
	anchors := DefaultIncomeAnchors()
	for _, a := range anchors {
		got, err := IncomeQuantile(anchors, a.Q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-a.Income)/a.Income > 1e-9 {
			t.Errorf("IncomeQuantile(%v) = %v, want anchor %v", a.Q, got, a.Income)
		}
	}
	// Clamping outside [0, 1].
	if got, _ := IncomeQuantile(anchors, -1); got != anchors[0].Income {
		t.Errorf("IncomeQuantile(-1) = %v", got)
	}
	if got, _ := IncomeQuantile(anchors, 2); got != anchors[len(anchors)-1].Income {
		t.Errorf("IncomeQuantile(2) = %v", got)
	}
}

func TestIncomeQuantileErrors(t *testing.T) {
	if _, err := IncomeQuantile([]QuantileAnchor{{Q: 0, Income: 1}}, 0.5); err == nil {
		t.Error("single anchor should fail")
	}
	bad := []QuantileAnchor{{Q: 0, Income: 100}, {Q: 0, Income: 200}}
	if _, err := IncomeQuantile(bad, 0.5); err == nil {
		t.Error("non-increasing Q should fail")
	}
	bad2 := []QuantileAnchor{{Q: 0, Income: 200}, {Q: 1, Income: 100}}
	if _, err := IncomeQuantile(bad2, 0.5); err == nil {
		t.Error("non-increasing income should fail")
	}
}

// Property: the quantile function is monotone in q.
func TestIncomeQuantileMonotoneProperty(t *testing.T) {
	anchors := DefaultIncomeAnchors()
	f := func(a, b uint16) bool {
		qa, qb := float64(a)/65535, float64(b)/65535
		if qa > qb {
			qa, qb = qb, qa
		}
		ia, err1 := IncomeQuantile(anchors, qa)
		ib, err2 := IncomeQuantile(anchors, qb)
		return err1 == nil && err2 == nil && ia <= ib+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssignIncomes(t *testing.T) {
	weights := []CountyWeight{
		{FIPS: "01001", StateAbbr: "AL", Weight: 1000, PovertyRank: 0.1},
		{FIPS: "02002", StateAbbr: "AK", Weight: 2000, PovertyRank: 0.9},
		{FIPS: "03003", StateAbbr: "AZ", Weight: 3000, PovertyRank: 0.5},
	}
	table, err := AssignIncomes(weights, DefaultIncomeAnchors())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.ordered) != 3 {
		t.Fatalf("table has %d counties", len(table.ordered))
	}
	// Poorer rank ⇒ lower income.
	r1, _ := table.Lookup("01001")
	r2, _ := table.Lookup("02002")
	r3, _ := table.Lookup("03003")
	if !(r1.MedianHouseholdIncomeUSD < r3.MedianHouseholdIncomeUSD &&
		r3.MedianHouseholdIncomeUSD < r2.MedianHouseholdIncomeUSD) {
		t.Errorf("income order violates poverty rank: %v %v %v",
			r1.MedianHouseholdIncomeUSD, r3.MedianHouseholdIncomeUSD, r2.MedianHouseholdIncomeUSD)
	}
	if _, ok := table.Lookup("99999"); ok {
		t.Error("unknown FIPS should not resolve")
	}
}

func TestAssignIncomesErrors(t *testing.T) {
	if _, err := AssignIncomes(nil, DefaultIncomeAnchors()); err == nil {
		t.Error("no weights should fail")
	}
	if _, err := AssignIncomes([]CountyWeight{{FIPS: "x", Weight: -1}}, DefaultIncomeAnchors()); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := AssignIncomes([]CountyWeight{{FIPS: "x", Weight: 0}}, DefaultIncomeAnchors()); err == nil {
		t.Error("zero total weight should fail")
	}
}

// The location-weighted CDF of assigned incomes reproduces the anchored
// quantile function at the calibration thresholds.
func TestAssignIncomesCalibration(t *testing.T) {
	// Many small counties give county granularity fine enough to hit
	// the anchors tightly.
	const nCounties = 3000
	weights := make([]CountyWeight, nCounties)
	for i := range weights {
		weights[i] = CountyWeight{
			FIPS:        fipsFor(i),
			Weight:      1000 + float64(i%7)*100,
			PovertyRank: float64((i*2654435761)%nCounties) / nCounties,
		}
	}
	table, err := AssignIncomes(weights, DefaultIncomeAnchors())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		threshold float64
		wantFrac  float64
		tol       float64
	}{
		{66450, 0.642, 0.01},
		{72000, 0.745, 0.01},
		{30000, 0.0001, 0.002},
	}
	for _, tc := range cases {
		got := weightedFractionBelow(table, tc.threshold)
		if math.Abs(got-tc.wantFrac) > tc.tol {
			t.Errorf("fraction below $%.0f = %.4f, want %.4f±%.3f",
				tc.threshold, got, tc.wantFrac, tc.tol)
		}
	}
}

// weightedFractionBelow returns the location-weight fraction of
// counties with median income strictly below the threshold: the oracle
// for the calibration test above.
func weightedFractionBelow(t *Table, incomeUSD float64) float64 {
	total, below := 0.0, 0.0
	for _, r := range t.ordered {
		total += r.Weight
		if r.MedianHouseholdIncomeUSD < incomeUSD {
			below += r.Weight
		}
	}
	if total == 0 {
		return 0
	}
	return below / total
}

func fipsFor(i int) string {
	const digits = "0123456789"
	out := make([]byte, 5)
	for k := 4; k >= 0; k-- {
		out[k] = digits[i%10]
		i /= 10
	}
	return string(out)
}

func TestTableOrdering(t *testing.T) {
	table := NewTable([]CountyIncome{
		{FIPS: "b", MedianHouseholdIncomeUSD: 50000},
		{FIPS: "a", MedianHouseholdIncomeUSD: 30000},
		{FIPS: "c", MedianHouseholdIncomeUSD: 70000},
	})
	counties := table.Counties()
	for i := 1; i < len(counties); i++ {
		if counties[i].MedianHouseholdIncomeUSD < counties[i-1].MedianHouseholdIncomeUSD {
			t.Fatal("Counties() not income-sorted")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	table := NewTable([]CountyIncome{
		{FIPS: "01001", StateAbbr: "AL", MedianHouseholdIncomeUSD: 45000, Weight: 1200},
		{FIPS: "48001", StateAbbr: "TX", MedianHouseholdIncomeUSD: 62000, Weight: 300},
	})
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.ordered) != 2 {
		t.Fatalf("round trip %d counties", len(back.ordered))
	}
	r, ok := back.Lookup("01001")
	if !ok || r.MedianHouseholdIncomeUSD != 45000 || r.Weight != 1200 || r.StateAbbr != "AL" {
		t.Errorf("round-trip record = %+v", r)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header,x,y",
		"county_fips,state,median_household_income_usd,unserved_locations\n01001,AL,abc,10",
		"county_fips,state,median_household_income_usd,unserved_locations\n01001,AL,-5,10",
		"county_fips,state,median_household_income_usd,unserved_locations\n01001,AL,50000,-1",
		// Non-digit, short, and long FIPS codes.
		"county_fips,state,median_household_income_usd,unserved_locations\nabcde,AL,50000,10",
		"county_fips,state,median_household_income_usd,unserved_locations\n0100,AL,50000,10",
		"county_fips,state,median_household_income_usd,unserved_locations\n010011,AL,50000,10",
		// Duplicate county.
		"county_fips,state,median_household_income_usd,unserved_locations\n01001,AL,50000,10\n01001,AL,52000,20",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
