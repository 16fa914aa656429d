package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

func sampleCells(t *testing.T) []demand.Cell {
	t.Helper()
	pts := []struct {
		lat, lng float64
		n        int
	}{
		{35.5, -106.3, 500}, {40, -100, 50}, {33, -90, 120}, {45, -95, 8},
	}
	cells := make([]demand.Cell, 0, len(pts))
	for _, p := range pts {
		id := hexgrid.LatLngToCell(geo.LatLng{Lat: p.lat, Lng: p.lng}, 4)
		cells = append(cells, demand.Cell{
			ID: id, Locations: p.n, CountyFIPS: "35001", Center: id.LatLng(),
		})
	}
	return cells
}

func TestWriteCellsGeoJSON(t *testing.T) {
	cells := sampleCells(t)
	var buf bytes.Buffer
	if err := WriteCellsGeoJSON(&buf, cells, 0); err != nil {
		t.Fatal(err)
	}
	features, locations, err := ReadCellsGeoJSONCount(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if features != len(cells) {
		t.Errorf("features = %d, want %d", features, len(cells))
	}
	if locations != 678 {
		t.Errorf("total locations = %d, want 678", locations)
	}
	out := buf.String()
	for _, want := range []string{"FeatureCollection", "Polygon", "county_fips", "demand_gbps"} {
		if !strings.Contains(out, want) {
			t.Errorf("geojson missing %q", want)
		}
	}
}

func TestWriteCellsGeoJSONCap(t *testing.T) {
	cells := sampleCells(t)
	var buf bytes.Buffer
	if err := WriteCellsGeoJSON(&buf, cells, 2); err != nil {
		t.Fatal(err)
	}
	features, locations, err := ReadCellsGeoJSONCount(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if features != 2 {
		t.Errorf("capped features = %d, want 2", features)
	}
	// The cap keeps the densest cells (500 + 120).
	if locations != 620 {
		t.Errorf("capped locations = %d, want 620", locations)
	}
}

func TestReadCellsGeoJSONErrors(t *testing.T) {
	if _, _, err := ReadCellsGeoJSONCount(strings.NewReader("not json")); err == nil {
		t.Error("invalid json should fail")
	}
	if _, _, err := ReadCellsGeoJSONCount(strings.NewReader(`{"type":"Feature"}`)); err == nil {
		t.Error("wrong type should fail")
	}
}

func TestWriteGatewaysGeoJSON(t *testing.T) {
	var buf bytes.Buffer
	err := WriteGatewaysGeoJSON(&buf,
		[]string{"a", "b"},
		[]geo.LatLng{{Lat: 40, Lng: -100}, {Lat: 30, Lng: -90}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Point"`) {
		t.Error("gateway geojson missing points")
	}
	if err := WriteGatewaysGeoJSON(&buf, []string{"a"}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
}

// ReadCellsGeoJSONCount parses a GeoJSON export and returns the feature
// count and total locations: the oracle for WriteCellsGeoJSON.
func ReadCellsGeoJSONCount(r io.Reader) (features, locations int, err error) {
	var fc geoJSONFeatureCollection
	if err := json.NewDecoder(r).Decode(&fc); err != nil {
		return 0, 0, fmt.Errorf("report: parsing geojson: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return 0, 0, fmt.Errorf("report: unexpected geojson type %q", fc.Type)
	}
	total := 0
	for _, f := range fc.Features {
		if n, ok := f.Properties["locations"].(float64); ok {
			total += int(n)
		}
	}
	return len(fc.Features), total, nil
}
