package hexgrid

import (
	"testing"

	"leodivide/internal/geo"
)

// FuzzLatLngToCell: any finite coordinate must map to a valid cell
// whose center round-trips.
func FuzzLatLngToCell(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(89.9, 179.9)
	f.Add(-89.9, -179.9)
	f.Add(35.5, -106.3)
	f.Fuzz(func(t *testing.T, lat, lng float64) {
		if lat < -90 || lat > 90 || lng < -180 || lng > 180 {
			return
		}
		if lat != lat || lng != lng { // NaN
			return
		}
		id := LatLngToCell(geo.LatLng{Lat: lat, Lng: lng}, 3)
		if !id.Valid() {
			t.Fatalf("LatLngToCell(%v, %v) invalid", lat, lng)
		}
		if back := LatLngToCell(id.LatLng(), 3); back != id {
			t.Fatalf("center round trip failed for (%v, %v): %v -> %v", lat, lng, id, back)
		}
	})
}
