package region

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/usgeo"
)

// referenceIncomes is the string-keyed income assignment generation
// replaced: a county-weight map, a sort of its keys and a state found
// by FIPS prefix (for a synthetic district, the region abbreviation).
func referenceIncomes(t *testing.T, dist *demand.Distribution, anchors []census.QuantileAnchor, abbrOf func(string) string, seed int64) []census.CountyIncome {
	t.Helper()
	weights := make(map[string]int)
	for rank := 0; rank < dist.NumCells(); rank++ {
		c := dist.Cell(rank)
		weights[c.CountyFIPS] += c.Locations
	}
	codes := make([]string, 0, len(weights))
	for code := range weights {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	cw := make([]census.CountyWeight, len(codes))
	for i, code := range codes {
		cw[i] = census.CountyWeight{
			FIPS:        code,
			StateAbbr:   abbrOf(code),
			Weight:      float64(weights[code]),
			PovertyRank: rankJitter(jitterPrefix(seed), code),
		}
	}
	table, err := census.AssignIncomes(cw, anchors)
	if err != nil {
		t.Fatal(err)
	}
	return table.Counties()
}

// The dense rank and district weights give the income table the
// string-keyed path gave, for every region.
func TestIncomesMatchStringKeyedReference(t *testing.T) {
	stateOf := make(map[string]string)
	for _, s := range usgeo.States() {
		stateOf[s.FIPS] = s.Abbr
	}
	usAbbr := func(fips string) string { return stateOf[fips[:2]] }
	type run struct {
		r       Region
		anchors []census.QuantileAnchor
		abbrOf  func(string) string
		seeds   []int64
		scales  []float64
	}
	var runs []run
	runs = append(runs, run{US(), census.DefaultIncomeAnchors(), usAbbr, []int64{1, 2, 3, 4}, []float64{0.05, 0.25}})
	for _, spec := range []SyntheticSpec{brazilRuralSpec, taipeiDenseSpec} {
		abbr := spec.RegionAbbr
		r, err := NewSynthetic(spec)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{r, spec.IncomeAnchors, func(string) string { return abbr }, []int64{1, 2}, []float64{0.05, 1}})
	}
	for _, rn := range runs {
		for _, seed := range rn.seeds {
			for _, scale := range rn.scales {
				t.Run(fmt.Sprintf("%s/seed=%d/scale=%v", rn.r.Key(), seed, scale), func(t *testing.T) {
					out, err := rn.r.Generate(context.Background(), GenConfig{Seed: seed, Scale: scale})
					if err != nil {
						t.Fatal(err)
					}
					want := referenceIncomes(t, out.Dist, rn.anchors, rn.abbrOf, seed)
					if got := out.Incomes.Counties(); !reflect.DeepEqual(got, want) {
						t.Errorf("income table differs from the string-keyed reference (%d vs %d counties)", len(got), len(want))
					}
				})
			}
		}
	}
}
