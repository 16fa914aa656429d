// Constellation: a LEO constellation designer working the paper's model
// in reverse — given a target service level for the US un(der)served
// population and a regulator-acceptable oversubscription, find the
// cheapest (smallest) constellation across beamspread factors, then
// sanity-check the coverage geometry with the time-stepped simulator.
package main

import (
	"context"
	"fmt"
	"log"

	"leodivide"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/sim"
)

func main() {
	ctx := context.Background()
	ds, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	m := leodivide.NewModel()
	dist := ds.Distribution()

	fmt.Println("design space: constellation size by beamspread, capped at 20:1 oversubscription")
	fmt.Println("(larger beamspread = fewer satellites but less capacity per cell)")
	fmt.Println()

	type candidate struct {
		spread   float64
		sats     int
		fraction float64
	}
	var best *candidate
	const targetServed = 0.998 // serve at least 99.8% of locations
	for _, spread := range []float64{1, 2, 3, 5, 8, 10, 12, 15} {
		res := m.Capacity.Size(dist, core.CappedOversub, spread, m.MaxOversub)
		served := 1 - float64(res.UnservedLocations)/float64(dist.TotalLocations())
		marker := " "
		if served >= targetServed {
			if best == nil || res.Satellites < best.sats {
				best = &candidate{spread: spread, sats: res.Satellites, fraction: served}
			}
			marker = "*"
		}
		fmt.Printf("%s beamspread %4.0f: %6d satellites, %.3f%% of locations served, binding cell at %.1f deg lat\n",
			marker, spread, res.Satellites, 100*served, res.BindingCell.Center.Lat)
	}
	if best == nil {
		log.Fatal("no design meets the service target")
	}
	fmt.Printf("\nchosen design: beamspread %.0f with %d satellites (%.3f%% served)\n\n",
		best.spread, best.sats, 100*best.fraction)

	// Cross-check with the simulator: does a Walker shell of roughly
	// the deployed size actually keep the demand cells in view? We
	// simulate the real first shell (72x22) and report coverage.
	cfg := sim.DefaultConfig()
	cfg.Spread = best.spread
	cfg.Oversub = m.MaxOversub
	cfg.Epochs = 8
	cells := make([]demand.Cell, ds.Cells.Len())
	for i := range cells {
		cells[i] = ds.Cells.At(i)
	}
	res, err := sim.Run(ctx, cfg, cells)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulator check (Walker 53 deg, %d sats, one-shell snapshot coverage):\n", cfg.Shell.Total)
	fmt.Printf("  mean visible satellites per demand cell: %.1f\n", res.MeanVisibleSats)
	fmt.Printf("  demand cells with at least one satellite in view: %.2f%% (min %.2f%%)\n",
		100*res.MeanCoveredFraction, 100*res.MinCoveredFraction)
	fmt.Printf("  demand cells whose beam requirement was met:      %.2f%% (min %.2f%%)\n",
		100*res.MeanServedFraction, 100*res.MinServedFraction)
	fmt.Println("\nnote: one 1,584-satellite shell keeps cells in view but cannot satisfy")
	fmt.Println("every cell's beam requirement — the gap the paper's Table 2 quantifies.")
}
