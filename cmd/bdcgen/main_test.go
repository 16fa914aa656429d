package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"leodivide/internal/bdc"
	"leodivide/internal/safeio"
)

func TestBdcgenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	err := run([]string{
		"-out", dir, "-seed", "7", "-total", "50000",
		"-location-scale", "0.1", "-providers",
	}, &log)
	if err != nil {
		t.Fatal(err)
	}
	// Every advertised file exists and re-ingests cleanly.
	cellsFile, err := os.Open(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer cellsFile.Close()
	cells, err := bdc.ReadCellsCSV(cellsFile)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cells {
		total += c.Locations
	}
	if total != 50000 {
		t.Errorf("cells total %d, want 50000", total)
	}

	locFile, err := os.Open(filepath.Join(dir, "locations.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer locFile.Close()
	locs, err := bdc.ReadLocationsCSV(locFile)
	if err != nil {
		t.Fatal(err)
	}

	availFile, err := os.Open(filepath.Join(dir, "availability.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer availFile.Close()
	records, err := bdc.ReadProviderCSV(availFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < len(locs) {
		t.Errorf("%d provider records for %d locations", len(records), len(locs))
	}

	if _, err := os.Stat(filepath.Join(dir, "cells.geojson")); err != nil {
		t.Errorf("missing geojson: %v", err)
	}
}

// An injected write failure on any generated artifact must fail the
// whole run and leave no partially written file at the destination.
func TestBdcgenReportsWriteFailures(t *testing.T) {
	boom := errors.New("disk full")
	for _, artifact := range []string{"cells.csv", "cells.geojson", "locations.csv"} {
		t.Run(artifact, func(t *testing.T) {
			defer safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
				if filepath.Base(path) == artifact {
					return &safeio.FaultWriter{W: w, FailAfter: 8, Err: boom}
				}
				return w
			})()
			dir := t.TempDir()
			var log bytes.Buffer
			err := run([]string{"-out", dir, "-seed", "7", "-total", "50000", "-location-scale", "0.05"}, &log)
			if !errors.Is(err, boom) {
				t.Fatalf("run error = %v, want %v", err, boom)
			}
			if _, statErr := os.Stat(filepath.Join(dir, artifact)); !os.IsNotExist(statErr) {
				t.Errorf("failed run left %s behind", artifact)
			}
		})
	}
}

func TestBdcgenErrors(t *testing.T) {
	var log bytes.Buffer
	if err := run([]string{"-out", t.TempDir(), "-total", "0"}, &log); err == nil {
		t.Error("zero total should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-location-scale", "0", "-providers"}, &log); err == nil {
		t.Error("providers without locations should fail")
	}
}
