package hexgrid

import (
	"context"
	"math"
	"slices"
	"sync"
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

// fullWalks holds the full-globe walk at resolutions 2 and 3, the
// reference FuzzWalkBox filters.
var fullWalks = sync.OnceValue(func() [2]fullWalk {
	return [2]fullWalk{newFullWalk(2), newFullWalk(3)}
})

// FuzzWalkBox: for any valid box, the culled, prefiltered walk at
// resolution 2 or 3 visits exactly the cells, in exactly the order,
// that filtering the full-globe walk would.
func FuzzWalkBox(f *testing.F) {
	f.Add(uint8(3), 18.0, 67.0, -169.0, -66.0)   // us
	f.Add(uint8(3), -25.0, -3.0, -61.0, -40.0)   // brazil-rural
	f.Add(uint8(2), 24.4, 25.6, 121.0, 122.2)    // taipei-dense
	f.Add(uint8(3), 75.0, 90.0, -30.0, 100.0)    // north pole
	f.Add(uint8(2), -90.0, -60.0, -180.0, 180.0) // south pole, full width
	f.Add(uint8(3), -10.0, 10.0, -180.0, 180.0)  // full width
	f.Add(uint8(3), -5.0, 5.0, -100.0, 80.0)     // exactly 180° wide
	f.Add(uint8(2), 0.0, 0.0, -180.0, 180.0)     // zero height
	f.Add(uint8(3), -40.0, 40.0, 36.0, 36.0)     // zero width
	f.Add(uint8(2), 90.0, 90.0, 0.0, 0.0)        // a point at the pole
	f.Fuzz(func(t *testing.T, res uint8, latLo, latHi, lngLo, lngHi float64) {
		box := Box{LatLo: latLo, LatHi: latHi, LngLo: lngLo, LngHi: lngHi}
		for _, x := range []float64{latLo, latHi, lngLo, lngHi} {
			if math.IsNaN(x) {
				return
			}
		}
		if latLo < -90 || latHi > 90 || latLo > latHi || lngLo < -180 || lngHi > 180 || lngLo > lngHi {
			return
		}
		r := Resolution(2 + res%2)
		want := fullWalks()[r-2].in(box)
		shards, err := WalkBox(context.Background(), r, box, 1+int(res/2)%3, func(s *[]CellID, id CellID, c geo.LatLng) {
			*s = append(*s, id)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Concat(shards...); !slices.Equal(got, want) {
			t.Fatalf("res %d box %+v: walk has %d cells, full walk %d", r, box, len(got), len(want))
		}
	})
}
