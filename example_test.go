package leodivide_test

import (
	"context"
	"fmt"
	"log"

	"leodivide"
)

// The calibrated dataset reproduces every statistic the paper publishes
// about the National Broadband Map.
func Example_quickstart() {
	ds, err := leodivide.GenerateDataset(context.Background(), leodivide.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	m := leodivide.NewModel()

	t1, err := m.Table1(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("peak cell locations:", t1.PeakCellLocations)
	fmt.Printf("peak demand: %.1f Gbps over %.1f Gbps capacity\n",
		t1.PeakCellDemandGbps, t1.MaxCellCapacityGbps)

	f1, err := m.Finding1(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("locations unservable at 20:1:", f1.ExcessLocations)
	// Output:
	// peak cell locations: 5998
	// peak demand: 599.8 Gbps over 17.3 Gbps capacity
	// locations unservable at 20:1: 5128
}

// Calibrated sizing reproduces the paper's Table 2 within rounding.
func ExampleModel_Table2() {
	ds, err := leodivide.GenerateDataset(context.Background(), leodivide.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	t2, err := leodivide.NewModel().Calibrated().Table2(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range t2.Rows {
		within := relDiff(row.FullServiceSats, t2.PaperFullService.At(row.Spread)) < 0.005
		fmt.Printf("beamspread %2.0f within 0.5%% of paper: %v\n", row.Spread, within)
	}
	// Output:
	// beamspread  1 within 0.5% of paper: true
	// beamspread  2 within 0.5% of paper: true
	// beamspread  5 within 0.5% of paper: true
	// beamspread 10 within 0.5% of paper: true
	// beamspread 15 within 0.5% of paper: true
}

// The affordability analysis reproduces Finding 4.
func ExampleModel_Fig4() {
	ds, err := leodivide.GenerateDataset(context.Background(), leodivide.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	f4, err := leodivide.NewModel().Fig4(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range f4.Results {
		name := r.Plan.Name
		if r.Subsidy != nil {
			name += " + " + r.Subsidy.Name
		}
		fmt.Printf("%-34s unaffordable for %4.1f%%\n", name, 100*r.UnaffordableFraction)
	}
	// Output:
	// Xfinity 300                        unaffordable for  0.0%
	// Spectrum Internet Premier          unaffordable for  0.0%
	// Starlink Residential + Lifeline    unaffordable for 64.1%
	// Starlink Residential               unaffordable for 74.5%
}

func relDiff(a, b int) float64 {
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}
