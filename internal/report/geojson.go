package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
)

// GeoJSON export: demand cells as a FeatureCollection of hexagon
// polygons with per-cell properties, loadable directly into QGIS,
// kepler.gl or any web map — the visual counterpart of the paper's
// Figure 1 map.

type geoJSONFeatureCollection struct {
	Type     string           `json:"type"`
	Features []geoJSONFeature `json:"features"`
}

type geoJSONFeature struct {
	Type       string                 `json:"type"`
	Geometry   geoJSONGeometry        `json:"geometry"`
	Properties map[string]interface{} `json:"properties"`
}

type geoJSONGeometry struct {
	Type        string         `json:"type"`
	Coordinates [][][2]float64 `json:"coordinates"`
}

// WriteCellsGeoJSON writes demand cells as a GeoJSON FeatureCollection:
// one polygon per cell (its hexagonal boundary) with location count and
// county properties. maxCells caps output size (0 = no cap); cells are
// written densest-first so a capped export keeps the interesting head.
func WriteCellsGeoJSON(w io.Writer, cells []demand.Cell, maxCells int) error {
	ordered := make([]demand.Cell, len(cells))
	copy(ordered, cells)
	// Densest first so a capped export keeps the interesting head.
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Locations != ordered[j].Locations {
			return ordered[i].Locations > ordered[j].Locations
		}
		return ordered[i].ID < ordered[j].ID
	})
	if maxCells > 0 && len(ordered) > maxCells {
		ordered = ordered[:maxCells]
	}
	fc := geoJSONFeatureCollection{Type: "FeatureCollection"}
	for _, c := range ordered {
		boundary := c.ID.Boundary()
		if len(boundary) < 3 {
			continue
		}
		ring := make([][2]float64, 0, len(boundary)+1)
		for _, v := range boundary {
			ring = append(ring, [2]float64{round6(v.Lng), round6(v.Lat)})
		}
		ring = append(ring, ring[0]) // close the ring
		fc.Features = append(fc.Features, geoJSONFeature{
			Type: "Feature",
			Geometry: geoJSONGeometry{
				Type:        "Polygon",
				Coordinates: [][][2]float64{ring},
			},
			Properties: map[string]interface{}{
				"cell_id":     fmt.Sprintf("%d", uint64(c.ID)),
				"locations":   c.Locations,
				"county_fips": c.CountyFIPS,
				"demand_gbps": c.DemandGbps(),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// WriteGatewaysGeoJSON writes gateway points as a FeatureCollection.
func WriteGatewaysGeoJSON(w io.Writer, names []string, positions []geo.LatLng) error {
	if len(names) != len(positions) {
		return fmt.Errorf("report: %d names but %d positions", len(names), len(positions))
	}
	type pointGeom struct {
		Type        string     `json:"type"`
		Coordinates [2]float64 `json:"coordinates"`
	}
	type pointFeature struct {
		Type       string            `json:"type"`
		Geometry   pointGeom         `json:"geometry"`
		Properties map[string]string `json:"properties"`
	}
	out := struct {
		Type     string         `json:"type"`
		Features []pointFeature `json:"features"`
	}{Type: "FeatureCollection"}
	for i := range names {
		out.Features = append(out.Features, pointFeature{
			Type: "Feature",
			Geometry: pointGeom{
				Type:        "Point",
				Coordinates: [2]float64{round6(positions[i].Lng), round6(positions[i].Lat)},
			},
			Properties: map[string]string{"name": names[i]},
		})
	}
	return json.NewEncoder(w).Encode(out)
}

func round6(x float64) float64 {
	return float64(int64(x*1e6+copySign(0.5, x))) / 1e6
}

func copySign(mag, sign float64) float64 {
	if sign < 0 {
		return -mag
	}
	return mag
}
