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
	cols, err := demand.NewCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	// The columns hold the cells in ID order, where the densest is not
	// first, so the order below is the writer's own.
	if cols.At(0).Locations == 500 {
		t.Fatal("the densest sample cell has the lowest ID")
	}
	var buf bytes.Buffer
	if err := WriteCellsGeoJSON(&buf, cols); err != nil {
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
	// Densest first: the head of the file is the peak-demand cell.
	var fc geoJSONFeatureCollection
	if err := json.Unmarshal(buf.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	var order []float64
	for _, f := range fc.Features {
		order = append(order, f.Properties["locations"].(float64))
	}
	if fmt.Sprint(order) != "[500 120 50 8]" {
		t.Errorf("feature order by locations = %v, want densest first [500 120 50 8]", order)
	}
	if got, want := fc.Features[0].Properties["cell_id"], fmt.Sprintf("%d", uint64(cells[0].ID)); got != want {
		t.Errorf("first feature is cell %v, want the densest cell %s", got, want)
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
