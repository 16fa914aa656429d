// Command bdcgen generates synthetic National Broadband Map datasets
// in every format the library speaks: per-cell CSV, per-location CSV,
// provider-availability CSV, and GeoJSON. It is the data-production
// side of the reproduction — everything the capacity and affordability
// analyses consume can be regenerated, inspected, and re-ingested from
// these files.
//
// Usage:
//
//	bdcgen -out DIR [-seed N] [-total N] [-location-scale F] [-providers]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"leodivide/internal/bdc"
	"leodivide/internal/demand"
	"leodivide/internal/obs"
	"leodivide/internal/report"
	"leodivide/internal/safeio"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bdcgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("bdcgen", flag.ContinueOnError)
	out := fs.String("out", "bdc-out", "output directory")
	seed := fs.Int64("seed", 1, "generation seed")
	total := fs.Int("total", 4672000, "total un(der)served locations")
	locScale := fs.Float64("location-scale", 0.01, "fraction of locations to expand into per-location records")
	providers := fs.Bool("providers", false, "also emit provider-availability records")
	geojson := fs.Bool("geojson", true, "emit cells.geojson")
	metrics := fs.Bool("metrics", false, "print the metric snapshot (generation timings, safeio write counters) after generation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics {
		defer func() {
			fmt.Fprintln(w, "--- metrics ---")
			//lint:ignore errdrop best-effort metrics dump to the diagnostic writer after generation already succeeded
			obs.Default.Snapshot().WriteText(w)
		}()
	}

	cfg := bdc.DefaultGenConfig()
	cfg.Seed = *seed
	if *total != cfg.TotalLocations {
		// Rescale the pinned peaks with the total so the distribution
		// shape survives.
		ratio := float64(*total) / float64(cfg.TotalLocations)
		for i := range cfg.Peaks {
			cfg.Peaks[i].Locations = int(float64(cfg.Peaks[i].Locations) * ratio)
			if cfg.Peaks[i].Locations < 1 {
				cfg.Peaks[i].Locations = 1
			}
		}
		cfg.TotalLocations = *total
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	cells, err := bdc.GenerateCells(ctx, cfg)
	if err != nil {
		return err
	}
	if err := writeTo(ctx, *out, "cells.csv", func(f io.Writer) error {
		return bdc.WriteCellsCSV(f, cells)
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "bdcgen: %d cells -> cells.csv\n", len(cells))

	if *geojson {
		if err := writeTo(ctx, *out, "cells.geojson", func(f io.Writer) error {
			return report.WriteCellsGeoJSON(f, cells, 0)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "bdcgen: cells.geojson written\n")
	}

	var locs []demand.Location
	if *locScale > 0 {
		locs, err = bdc.GenerateLocations(cfg, cells, *locScale)
		if err != nil {
			return err
		}
		if err := writeTo(ctx, *out, "locations.csv", func(f io.Writer) error {
			return bdc.WriteLocationsCSV(f, locs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "bdcgen: %d locations -> locations.csv\n", len(locs))
	}

	if *providers {
		if locs == nil {
			return fmt.Errorf("providers require -location-scale > 0")
		}
		records := bdc.GenerateProviderRecords(*seed, locs)
		if err := writeTo(ctx, *out, "availability.csv", func(f io.Writer) error {
			return bdc.WriteProviderCSV(f, records)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "bdcgen: %d provider records -> availability.csv\n", len(records))
	}
	return nil
}

// writeTo writes one output artifact atomically via safeio, so a
// failed or interrupted generation can never leave a truncated CSV
// that downstream ingestion would half-read.
func writeTo(ctx context.Context, dir, name string, fn func(io.Writer) error) error {
	return safeio.WriteFile(ctx, filepath.Join(dir, name), fn)
}
