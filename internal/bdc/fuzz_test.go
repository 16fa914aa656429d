package bdc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"leodivide/internal/hexgrid"
)

// Fuzzing the CSV decoders: arbitrary input must never panic, and
// anything that parses must re-encode and re-parse to the same records
// (a decode/encode/decode fixed point).

func FuzzReadLocationsCSV(f *testing.F) {
	f.Add("location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n" +
		"1,35.5,-106.3,NM,35001,25.00,3.00,dsl\n")
	f.Add("")
	f.Add("garbage")
	f.Add("location_id,latitude,longitude,state,county_fips,max_download_mbps,max_upload_mbps,technology\n" +
		"1,999,-106.3,NM,35001,25.00,3.00,dsl\n")
	f.Fuzz(func(t *testing.T, input string) {
		locs, err := ReadLocationsCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLocationsCSV(&buf, locs); err != nil {
			t.Fatalf("re-encode of parsed input failed: %v", err)
		}
		again, err := ReadLocationsCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse of re-encoded input failed: %v", err)
		}
		if len(again) != len(locs) {
			t.Fatalf("fixed point violated: %d -> %d records", len(locs), len(again))
		}
	})
}

func FuzzReadCellsCSV(f *testing.F) {
	valid := testCellID(35.5, -106.3)
	f.Add(fmt.Sprintf("cell_id,latitude,longitude,county_fips,unserved_locations\n"+
		"%d,35.5,-106.3,35001,100\n", valid))
	f.Add("cell_id,latitude,longitude,county_fips,unserved_locations\n")
	f.Add(fmt.Sprintf("cell_id,latitude,longitude,county_fips,unserved_locations\n"+
		"%d,91.0,-200.0,abcde,-7\n", valid))
	f.Add("not,a,cells,file,at all\ngarbage")
	f.Fuzz(func(t *testing.T, input string) {
		cells, err := ReadCellsCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// Anything accepted must satisfy the reader's promised
		// invariants...
		seen := make(map[hexgrid.CellID]bool, len(cells))
		for _, c := range cells {
			if !c.ID.Valid() {
				t.Fatalf("accepted invalid cell id %d", uint64(c.ID))
			}
			if seen[c.ID] {
				t.Fatalf("accepted duplicate cell id %d", uint64(c.ID))
			}
			seen[c.ID] = true
			if !c.Center.Valid() {
				t.Fatalf("accepted out-of-range coordinate %v", c.Center)
			}
			if !ValidFIPS(c.CountyFIPS) {
				t.Fatalf("accepted bad FIPS %q", c.CountyFIPS)
			}
			if c.Locations < 0 {
				t.Fatalf("accepted negative location count %d", c.Locations)
			}
		}
		// ...and re-encode/re-parse to a fixed point.
		var buf bytes.Buffer
		if err := WriteCellsCSV(&buf, cells); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadCellsCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(cells) {
			t.Fatalf("fixed point violated: %d -> %d", len(cells), len(again))
		}
	})
}
