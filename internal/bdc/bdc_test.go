package bdc

import (
	"context"

	"bytes"
	"math"
	"strings"
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
	cells, err := GenerateCells(context.Background(), cfg)
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
	for _, c := range cells[:100] {
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
	a, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 2
	c, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateCellsDistinctIDs(t *testing.T) {
	cells, err := GenerateCells(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[hexgrid.CellID]bool, len(cells))
	for _, c := range cells {
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
	cells, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg, cells, 1.0)
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
	want := make(map[hexgrid.CellID]int, len(cells))
	for _, c := range cells {
		want[c.ID] = c.Locations
	}
	if len(agg) != len(cells) {
		t.Fatalf("aggregation produced %d cells, want %d", len(agg), len(cells))
	}
	for _, c := range agg {
		if want[c.ID] != c.Locations {
			t.Errorf("cell %v: aggregated %d, want %d", c.ID, c.Locations, want[c.ID])
		}
	}
	// Every generated location is un(der)served.
	for _, l := range locs {
		if !l.Underserved() {
			t.Fatalf("location %d is served (%v/%v)", l.ID, l.MaxDownMbps, l.MaxUpMbps)
		}
	}
}

func TestGenerateLocationsScale(t *testing.T) {
	cfg := smallConfig()
	cells, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg, cells, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled counts round up per cell, so between 1% and ~(1% + one per
	// cell).
	if len(locs) < cfg.TotalLocations/100 || len(locs) > cfg.TotalLocations/100+len(cells) {
		t.Errorf("scaled to %d locations from %d", len(locs), cfg.TotalLocations)
	}
	if _, err := GenerateLocations(cfg, cells, 0); err == nil {
		t.Error("scale 0 should fail")
	}
	if _, err := GenerateLocations(cfg, cells, 1.5); err == nil {
		t.Error("scale >1 should fail")
	}
}

func TestLocationsCSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cells, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg, cells[:50], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLocationsCSV(&buf, locs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLocationsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(locs) {
		t.Fatalf("round trip %d -> %d records", len(locs), len(back))
	}
	for i := range locs {
		if back[i].ID != locs[i].ID || back[i].CountyFIPS != locs[i].CountyFIPS ||
			back[i].Technology != locs[i].Technology {
			t.Fatalf("record %d differs: %+v vs %+v", i, locs[i], back[i])
		}
		if geo.DistanceKm(back[i].Pos, locs[i].Pos) > 0.001 {
			t.Fatalf("record %d position drifted", i)
		}
	}
}

func TestCellsCSVRoundTrip(t *testing.T) {
	cells, err := GenerateCells(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCellsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(cells) {
		t.Fatalf("round trip %d -> %d cells", len(cells), len(back))
	}
	for i := range cells {
		if back[i].ID != cells[i].ID || back[i].Locations != cells[i].Locations ||
			back[i].CountyFIPS != cells[i].CountyFIPS {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestReadLocationsCSVErrors(t *testing.T) {
	cases := []string{
		"",           // no header
		"bad,header", // wrong header
		"location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\nx,1,2,TX,48001,10,1,dsl",    // bad id
		"location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n1,999,2,TX,48001,10,1,dsl",  // bad lat
		"location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n1,30,-97,TX,4800,10,1,dsl",  // bad fips
		"location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n1,30,-97,TX,48001,-5,1,dsl", // bad speed
	}
	for i, in := range cases {
		if _, err := ReadLocationsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// The reader validates the dataset as a whole, not just each record:
// a location ID may appear once.
func TestValidateCatchesDuplicates(t *testing.T) {
	const header = "location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n"
	in := header + "1,30,-97,TX,48001,10,1,dsl\n1,31,-97,TX,48001,10,1,dsl\n"
	if _, err := ReadLocationsCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "duplicate location_id 1") {
		t.Errorf("duplicate IDs: err = %v, want a duplicate location_id error", err)
	}
}

func TestPeaksPlacedAtAnchors(t *testing.T) {
	cfg := DefaultGenConfig()
	cells, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[hexgrid.CellID]demand.Cell, len(cells))
	for _, c := range cells {
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
			cells, err := GenerateCells(context.Background(), cfg)
			if err != nil {
				t.Fatalf("total=%d seed=%d: %v", total, seed, err)
			}
			sum := 0
			ids := make(map[hexgrid.CellID]bool, len(cells))
			for _, c := range cells {
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
