// Ruralisp: a state broadband office evaluating LEO service for one
// state's un(der)served locations — the workload the paper's
// introduction motivates (recent US regulatory proposals would allow
// BEAD-style funding to flow to LEO constellations instead of
// terrestrial builds).
//
// For a chosen state the example reports: the state's demand profile,
// the oversubscription its densest cell would see, what fraction of the
// state's cells today's constellation could serve at regulator-
// acceptable oversubscription, and whether households could afford the
// service with and without Lifeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"leodivide"
	"leodivide/internal/afford"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/usgeo"
)

func main() {
	state := flag.String("state", "WV", "USPS state abbreviation to analyse")
	flag.Parse()

	st, err := usgeo.ByAbbr(*state)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ds, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	// Filter the national dataset to the state's cells.
	var cells []demand.Cell
	for i := range ds.Cells.Len() {
		c := ds.Cells.At(i)
		if s, ok := usgeo.StateAt(c.Center); ok && s.Abbr == st.Abbr {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		log.Fatalf("no demand cells found in %s", st.Name)
	}
	stateCells, err := demand.NewCells(cells)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := demand.NewDistribution(stateCells)
	if err != nil {
		log.Fatal(err)
	}

	m := leodivide.NewModel()
	fmt.Printf("%s: %d un(der)served locations across %d service cells\n",
		st.Name, dist.TotalLocations(), dist.NumCells())

	sum, err := dist.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell density: median %.0f, p90 %.0f, max %d locations/cell\n\n",
		sum.Median, sum.P90, dist.Peak().Locations)

	// Capacity view: what oversubscription the densest cell forces, and
	// the served fraction at the FCC fixed-wireless cap.
	o := m.Capacity.Oversubscription(dist, m.MaxOversub)
	fmt.Printf("densest cell needs %.1f:1 oversubscription for full 100/20 service\n", o.RequiredOversub)
	fmt.Printf("at %g:1, %.3f%% of the state's locations are servable (%d left out)\n\n",
		o.MaxOversub, 100*o.ServedFractionAtCap, o.ExcessLocations)

	// How much of the state a single spread beam per cell serves, at a
	// few beamspread factors (the current-constellation regime).
	fmt.Println("fraction of state cells servable with one spread beam per cell:")
	grid, err := m.Capacity.ServedFractionGrid(ctx, dist, []float64{2, 5, 10}, []float64{m.MaxOversub})
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range []float64{2, 5, 10} {
		fmt.Printf("  beamspread %2.0f: %.1f%%\n", s, 100*grid[i][0])
	}
	fmt.Println()

	// Affordability within the state: collect county weights and
	// incomes from the national table.
	in, err := stateAffordability(ds, cells)
	if err != nil {
		log.Fatal(err)
	}
	for _, opt := range afford.PaperComparison() {
		r := in.Evaluate(opt.Plan, opt.Subsidy, m.AffordShare)
		name := opt.Plan.Name
		if opt.Subsidy != nil {
			name += " w/ " + opt.Subsidy.Name
		}
		fmt.Printf("%-38s $%6.2f/mo -> %6.0f of %.0f locations unaffordable (%.1f%%)\n",
			name, afford.EffectiveMonthlyUSD(opt.Plan, opt.Subsidy),
			r.UnaffordableLocations, in.TotalLocations(), 100*r.UnaffordableFraction)
	}
}

// stateAffordability builds an affordability input restricted to the
// given cells' counties, weighted by their location counts.
func stateAffordability(ds *leodivide.Dataset, cells []demand.Cell) (*afford.Input, error) {
	weights := make(map[string]float64)
	for _, c := range cells {
		weights[c.CountyFIPS] += float64(c.Locations)
	}
	fips := make([]string, 0, len(weights))
	for f := range weights {
		fips = append(fips, f)
	}
	sort.Strings(fips)
	recs := make([]census.CountyIncome, 0, len(fips))
	for _, f := range fips {
		rec, ok := ds.Incomes.Lookup(f)
		if !ok {
			continue
		}
		rec.Weight = weights[f]
		recs = append(recs, rec)
	}
	return afford.NewInput(census.NewTable(recs))
}
