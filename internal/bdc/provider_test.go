package bdc

import (
	"context"

	"bytes"
	"strings"
	"testing"

	"leodivide/internal/demand"
)

func testLocations(t *testing.T) []demand.Location {
	t.Helper()
	cfg := smallConfig()
	cfg.TotalLocations = 3000
	cfg.Peaks = cfg.Peaks[:1]
	cfg.Peaks[0].Locations = 200
	cells, err := GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := GenerateLocations(cfg, cells, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return locs
}

func TestGenerateProviderRecords(t *testing.T) {
	locs := testLocations(t)
	records := GenerateProviderRecords(1, locs)
	if len(records) < len(locs) {
		t.Fatalf("%d records for %d locations", len(records), len(locs))
	}
	// Deterministic for the same seed.
	again := GenerateProviderRecords(1, locs)
	if len(again) != len(records) {
		t.Fatal("provider generation not deterministic")
	}
	for i := range records {
		if records[i] != again[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
	// Different seeds differ.
	other := GenerateProviderRecords(2, locs)
	same := 0
	for i := range records {
		if i < len(other) && records[i] == other[i] {
			same++
		}
	}
	if same == len(records) {
		t.Error("different seeds produced identical records")
	}
}

func TestBestServiceRoundTrip(t *testing.T) {
	locs := testLocations(t)
	records := GenerateProviderRecords(1, locs)
	// Reducing claims to best service must reproduce each location's
	// recorded maximum (the generator's invariant).
	best := BestService(records)
	for _, l := range locs {
		b, ok := best[l.ID]
		if !ok || b.MaxDownMbps != l.MaxDownMbps || b.MaxUpMbps != l.MaxUpMbps {
			t.Fatalf("location %d: best service %v/%v, want %v/%v",
				l.ID, b.MaxDownMbps, b.MaxUpMbps, l.MaxDownMbps, l.MaxUpMbps)
		}
	}
}

func TestBestServicePicksMax(t *testing.T) {
	records := []ProviderRecord{
		{LocationID: 1, ProviderID: 10, MaxDownMbps: 25, MaxUpMbps: 3},
		{LocationID: 1, ProviderID: 11, MaxDownMbps: 100, MaxUpMbps: 10},
		{LocationID: 1, ProviderID: 12, MaxDownMbps: 100, MaxUpMbps: 20},
		{LocationID: 2, ProviderID: 10, MaxDownMbps: 10, MaxUpMbps: 1},
	}
	best := BestService(records)
	if best[1].ProviderID != 12 {
		t.Errorf("location 1 best = provider %d, want 12 (upload tiebreak)", best[1].ProviderID)
	}
	if best[2].MaxDownMbps != 10 {
		t.Errorf("location 2 best = %v", best[2].MaxDownMbps)
	}
}

func TestProviderCSVRoundTrip(t *testing.T) {
	locs := testLocations(t)[:200]
	records := GenerateProviderRecords(1, locs)
	var buf bytes.Buffer
	if err := WriteProviderCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProviderCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("round trip %d -> %d", len(records), len(back))
	}
	for i := range records {
		if records[i] != back[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, records[i], back[i])
		}
	}
}

func TestReadProviderCSVErrors(t *testing.T) {
	header := strings.Join(providerCSVHeader, ",")
	cases := []string{
		"",
		"wrong,header,entirely,x,y,z,w",
		header + "\nx,1,ISP,dsl,10,1,true",
		header + "\n1,x,ISP,dsl,10,1,true",
		header + "\n1,1,ISP,dsl,-5,1,true",
		header + "\n1,1,ISP,dsl,10,1,maybe",
	}
	for i, in := range cases {
		if _, err := ReadProviderCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGenerateLocationsAllUnderserved(t *testing.T) {
	// The synthetic map contains only un(der)served locations; the
	// best-service reduction must preserve that.
	locs := testLocations(t)
	records := GenerateProviderRecords(1, locs)
	for id, r := range BestService(records) {
		if demand.ReliablyServed(r.MaxDownMbps, r.MaxUpMbps) {
			t.Fatalf("location %d claims reliable service (%v/%v)", id, r.MaxDownMbps, r.MaxUpMbps)
		}
	}
}

// BestService reduces provider records to the per-location maximum
// claimed service, mirroring how the National Broadband Map derives
// location speeds from provider filings. Records are grouped by
// LocationID; the best download (ties broken by upload) wins. It is the
// oracle for the generator's invariants above.
func BestService(records []ProviderRecord) map[uint64]ProviderRecord {
	best := make(map[uint64]ProviderRecord)
	for _, r := range records {
		cur, ok := best[r.LocationID]
		if !ok || r.MaxDownMbps > cur.MaxDownMbps ||
			(r.MaxDownMbps == cur.MaxDownMbps && r.MaxUpMbps > cur.MaxUpMbps) {
			best[r.LocationID] = r
		}
	}
	return best
}
