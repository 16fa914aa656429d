package bdc

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

// smallConfig is a cheap configuration for tests exercising mechanics
// rather than calibration.
func smallConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.TotalLocations = 40000
	cfg.Peaks = []PeakCell{
		{Locations: 4000, Anchor: geo.LatLng{Lat: 35.5, Lng: -106.3}},
		{Locations: 3600, Anchor: geo.LatLng{Lat: 34.3, Lng: -89.9}},
	}
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultGenConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*GenConfig){
		func(c *GenConfig) { c.Resolution = -1 },
		func(c *GenConfig) { c.TotalLocations = 0 },
		func(c *GenConfig) { c.BodyAnchors = c.BodyAnchors[:1] },
		func(c *GenConfig) { c.BodyAnchors[0].Q = 0.5 },
		func(c *GenConfig) { c.BodyAnchors[2].Q = c.BodyAnchors[1].Q },
		func(c *GenConfig) { c.TotalLocations = 10000 }, // below peak sum
		func(c *GenConfig) { c.Peaks[0].Anchor.Lat = 200 },
	}
	for i, mut := range mutations {
		cfg := DefaultGenConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestBodyQuantileAnchored(t *testing.T) {
	cfg := DefaultGenConfig()
	for _, a := range cfg.BodyAnchors {
		if got := cfg.bodyQuantile(a.Q); math.Abs(got-a.Locations)/a.Locations > 1e-9 {
			t.Errorf("bodyQuantile(%v) = %v, want %v", a.Q, got, a.Locations)
		}
	}
	if got := cfg.bodyQuantile(-1); got != 1 {
		t.Errorf("bodyQuantile(-1) = %v", got)
	}
}

func TestBodyCountsExactTotal(t *testing.T) {
	cfg := smallConfig()
	for _, target := range []int{1000, 33333, 90001} {
		counts := cfg.bodyCounts(target)
		sum := 0
		for i, c := range counts {
			if c < 1 {
				t.Fatalf("count %d < 1", c)
			}
			if i > 0 && counts[i] < counts[i-1] {
				t.Fatal("counts not ascending")
			}
			sum += c
		}
		if sum != target {
			t.Errorf("bodyCounts(%d) sums to %d", target, sum)
		}
	}
}

func TestGenerateCellsCalibration(t *testing.T) {
	cfg := DefaultGenConfig()
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's hard anchors, exactly.
	if got := dist.TotalLocations(); got != 4672000 {
		t.Errorf("total = %d, want 4672000", got)
	}
	if got := dist.Peak().Locations; got != 5998 {
		t.Errorf("peak = %d, want 5998", got)
	}
	if got := dist.CellsAbove(3460); got != 5 {
		t.Errorf("cells above 3460 = %d, want 5", got)
	}
	if got := dist.LocationsInCellsAbove(3460); got != 22428 {
		t.Errorf("locations in dense cells = %d, want 22428", got)
	}
	if got := dist.ExcessAbove(3460); got != 5128 {
		t.Errorf("excess = %d, want 5128", got)
	}
	// The published percentiles, within nearest-rank slack.
	if got := dist.Quantile(0.90); got < 548 || got > 556 {
		t.Errorf("p90 = %d, want ≈552", got)
	}
	if got := dist.Quantile(0.99); got < 1420 || got > 1455 {
		t.Errorf("p99 = %d, want ≈1437", got)
	}
	// Every cell has a county and valid center.
	for _, c := range wholeCells(cells)[:100] {
		if len(c.CountyFIPS) != 5 {
			t.Errorf("cell %v county %q", c.ID, c.CountyFIPS)
		}
		if !c.Center.Valid() {
			t.Errorf("cell %v invalid center", c.ID)
		}
	}
}

func TestGenerateCellsDeterminism(t *testing.T) {
	cfg := smallConfig()
	a, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Len() {
		if a.At(i) != b.At(i) {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a.At(i), b.At(i))
		}
	}
	cfg.Seed = 2
	c, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Len() {
		if i < c.Len() && a.At(i) == c.At(i) {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateCellsDistinctIDs(t *testing.T) {
	cells, _, err := GenerateCells(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[hexgrid.CellID]bool, cells.Len())
	for _, c := range wholeCells(cells) {
		if seen[c.ID] {
			t.Fatalf("duplicate cell %v", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestGenerateLocationsStayInCell(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalLocations = 5000
	cfg.Peaks = cfg.Peaks[:1]
	cfg.Peaks[0].Locations = 300
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg.Seed, cfg.Resolution, cells, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 5000 {
		t.Fatalf("generated %d locations, want 5000", len(locs))
	}
	// Aggregating the locations back must reproduce the per-cell counts
	// exactly (every location is underserved and jitter stays within
	// the Voronoi cell).
	agg, err := demand.Aggregate(locs, cfg.Resolution)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[hexgrid.CellID]int, cells.Len())
	for _, c := range wholeCells(cells) {
		want[c.ID] = c.Locations
	}
	if len(agg) != cells.Len() {
		t.Fatalf("aggregation produced %d cells, want %d", len(agg), cells.Len())
	}
	for _, c := range agg {
		if want[c.ID] != c.Locations {
			t.Errorf("cell %v: aggregated %d, want %d", c.ID, c.Locations, want[c.ID])
		}
	}
}

func TestGenerateLocationsAllUnderserved(t *testing.T) {
	// The synthetic map contains only un(der)served locations, in the
	// peak cells and the body alike.
	cfg := smallConfig()
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg.Seed, cfg.Resolution, cells, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 {
		t.Fatal("generated no locations")
	}
	for _, l := range locs {
		if !l.Underserved() {
			t.Fatalf("location %d is served (%v/%v)", l.ID, l.MaxDownMbps, l.MaxUpMbps)
		}
	}
}

func TestGenerateLocationsScale(t *testing.T) {
	cfg := smallConfig()
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg.Seed, cfg.Resolution, cells, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled counts round up per cell, so between 1% and ~(1% + one per
	// cell).
	if len(locs) < cfg.TotalLocations/100 || len(locs) > cfg.TotalLocations/100+cells.Len() {
		t.Errorf("scaled to %d locations from %d", len(locs), cfg.TotalLocations)
	}
	if _, err := GenerateLocations(cfg.Seed, cfg.Resolution, cells, 0); err == nil {
		t.Error("scale 0 should fail")
	}
	if _, err := GenerateLocations(cfg.Seed, cfg.Resolution, cells, 1.5); err == nil {
		t.Error("scale >1 should fail")
	}
}

// readBack reads a file the CSV writers produced with encoding/csv,
// checks its header and returns the records after it. It validates
// nothing: the round-trip tests compare every field with the value it
// was written from.
func readBack(t *testing.T, r io.Reader, header []string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !slices.Equal(recs[0], header) {
		t.Fatalf("header does not match %v", header)
	}
	return recs[1:]
}

func TestLocationsCSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := demand.NewCells(wholeCells(cells)[:50])
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg.Seed, cfg.Resolution, first, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLocationsCSV(&buf, locs); err != nil {
		t.Fatal(err)
	}
	recs := readBack(t, &buf, csvHeader)
	if len(recs) != len(locs) {
		t.Fatalf("round trip %d -> %d records", len(locs), len(recs))
	}
	for i, rec := range recs {
		id, err1 := strconv.ParseUint(rec[0], 10, 64)
		lat, err2 := strconv.ParseFloat(rec[1], 64)
		lng, err3 := strconv.ParseFloat(rec[2], 64)
		down, err4 := strconv.ParseFloat(rec[5], 64)
		up, err5 := strconv.ParseFloat(rec[6], 64)
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		back := demand.Location{
			ID:          id,
			Pos:         geo.LatLng{Lat: lat, Lng: lng},
			StateAbbr:   rec[3],
			CountyFIPS:  rec[4],
			MaxDownMbps: down,
			MaxUpMbps:   up,
			Technology:  rec[7],
		}
		if back != locs[i] {
			t.Fatalf("record %d reads back as %+v, want %+v", i, back, locs[i])
		}
	}
}

func TestCellsCSVRoundTrip(t *testing.T) {
	cells, _, err := GenerateCells(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	recs := readBack(t, &buf, cellCSVHeader)
	if len(recs) != cells.Len() {
		t.Fatalf("round trip %d -> %d cells", cells.Len(), len(recs))
	}
	for i, rec := range recs {
		id, err1 := strconv.ParseUint(rec[0], 10, 64)
		lat, err2 := strconv.ParseFloat(rec[1], 64)
		lng, err3 := strconv.ParseFloat(rec[2], 64)
		n, err4 := strconv.Atoi(rec[4])
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		back := demand.Cell{
			ID:         hexgrid.CellID(id),
			Center:     geo.LatLng{Lat: lat, Lng: lng},
			CountyFIPS: rec[3],
			Locations:  n,
		}
		if back != cells.At(i) {
			t.Fatalf("cell %d reads back as %+v, want %+v", i, back, cells.At(i))
		}
	}
}

func TestPeaksPlacedAtAnchors(t *testing.T) {
	cfg := DefaultGenConfig()
	cells, _, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[hexgrid.CellID]demand.Cell, cells.Len())
	for _, c := range wholeCells(cells) {
		byID[c.ID] = c
	}
	for _, p := range cfg.Peaks {
		id := hexgrid.LatLngToCell(p.Anchor, cfg.Resolution)
		got, ok := byID[id]
		if !ok {
			t.Errorf("peak anchor %v has no cell", p.Anchor)
			continue
		}
		if got.Locations != p.Locations {
			t.Errorf("peak cell %v has %d locations, want %d", id, got.Locations, p.Locations)
		}
	}
}

// Property: generated datasets honor the configured total and peaks at
// any scale.
func TestGeneratorInvariantProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("generator property in -short mode")
	}
	for _, total := range []int{25000, 60000, 150000} {
		for _, seed := range []int64{1, 9} {
			cfg := DefaultGenConfig()
			cfg.Seed = seed
			cfg.TotalLocations = total
			ratio := float64(total) / 4672000
			for i := range cfg.Peaks {
				cfg.Peaks[i].Locations = int(float64(cfg.Peaks[i].Locations) * ratio)
				if cfg.Peaks[i].Locations < 1 {
					cfg.Peaks[i].Locations = 1
				}
			}
			cells, _, err := GenerateCells(context.Background(), cfg)
			if err != nil {
				t.Fatalf("total=%d seed=%d: %v", total, seed, err)
			}
			sum := 0
			ids := make(map[hexgrid.CellID]bool, cells.Len())
			for _, c := range wholeCells(cells) {
				if c.Locations < 1 {
					t.Fatalf("total=%d: empty cell", total)
				}
				if ids[c.ID] {
					t.Fatalf("total=%d: duplicate cell", total)
				}
				ids[c.ID] = true
				sum += c.Locations
			}
			if sum != total {
				t.Fatalf("total=%d seed=%d: generated %d", total, seed, sum)
			}
		}
	}
}

// wholeCells reads every cell of a generated set, in ID order.
func wholeCells(cells demand.Cells) []demand.Cell {
	out := make([]demand.Cell, cells.Len())
	for i := range out {
		out[i] = cells.At(i)
	}
	return out
}
