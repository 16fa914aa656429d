package hexgrid

import (
	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/geo"
)

func TestResolutionTable(t *testing.T) {
	for r := MinResolution; r <= MaxResolution; r++ {
		n := r.Subdivisions()
		if n <= 0 {
			t.Fatalf("res %d: subdivisions %d", r, n)
		}
		if got, want := r.NumCells(), 10*n*n+2; got != want {
			t.Errorf("res %d: NumCells = %d, want %d", r, got, want)
		}
		if r > MinResolution && r.NumCells() <= (r-1).NumCells() {
			t.Errorf("res %d: cell count not increasing", r)
		}
	}
	if Resolution(-1).Valid() || Resolution(7).Valid() {
		t.Error("out-of-range resolutions reported valid")
	}
	if Resolution(-1).Subdivisions() != 0 {
		t.Error("invalid resolution should have 0 subdivisions")
	}
}

func TestResolution5MatchesH3Area(t *testing.T) {
	// The paper's Starlink cells are H3 resolution 5 (~252.9 km² each).
	got := Resolution(5).AvgCellAreaKm2()
	if math.Abs(got-252.9)/252.9 > 0.01 {
		t.Errorf("res-5 avg area = %.1f km², want ≈252.9", got)
	}
}

func TestEnumerationMatchesFormula(t *testing.T) {
	for r := MinResolution; r <= 2; r++ {
		got := 0
		ForEachCell(r, func(CellID) { got++ })
		if want := r.NumCells(); got != want {
			t.Errorf("res %d: enumerated %d cells, want %d", r, got, want)
		}
	}
}

func TestEnumerationUnique(t *testing.T) {
	const r = Resolution(2)
	seen := make(map[CellID]bool)
	ForEachCell(r, func(id CellID) {
		if seen[id] {
			t.Errorf("cell %v enumerated twice", id)
		}
		seen[id] = true
		if !id.Valid() {
			t.Errorf("enumerated invalid cell %v", id)
		}
	})
}

func TestLatLngToCellRoundTrip(t *testing.T) {
	// A cell's center must map back to the same cell.
	for _, r := range []Resolution{0, 2, 4, 5} {
		probe := []geo.LatLng{
			{Lat: 0, Lng: 0}, {Lat: 35.5, Lng: -106.3}, {Lat: -45, Lng: 170},
			{Lat: 89, Lng: 10}, {Lat: -89, Lng: -10}, {Lat: 20.9, Lng: -156},
		}
		for _, p := range probe {
			id := LatLngToCell(p, r)
			if !id.Valid() {
				t.Fatalf("res %d: LatLngToCell(%v) invalid: %v", r, p, id)
			}
			id2 := LatLngToCell(id.LatLng(), r)
			if id2 != id {
				t.Errorf("res %d: center of %v maps to %v", r, id, id2)
			}
		}
	}
}

// Property: every point maps to a cell whose center is within the
// maximum Voronoi radius (≤ ~0.9 lattice spacings with distortion).
func TestNearestCenterProperty(t *testing.T) {
	const r = Resolution(3)
	spacing := edgeAngle / float64(r.Subdivisions())
	f := func(a, b uint16) bool {
		p := geo.LatLng{
			Lat: float64(a)/65535*179 - 89.5,
			Lng: float64(b)/65535*360 - 180,
		}
		id := LatLngToCell(p, r)
		if !id.Valid() {
			return false
		}
		return geo.AngularDistance(p, id.LatLng()) <= 0.9*spacing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: round trip holds for random points at resolution 5 (the
// production resolution).
func TestRoundTripPropertyRes5(t *testing.T) {
	const r = Resolution(5)
	f := func(a, b uint16) bool {
		p := geo.LatLng{
			Lat: float64(a)/65535*179 - 89.5,
			Lng: float64(b)/65535*360 - 180,
		}
		id := LatLngToCell(p, r)
		return id.Valid() && LatLngToCell(id.LatLng(), r) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCellIDAccessors(t *testing.T) {
	p := geo.LatLng{Lat: 40, Lng: -100}
	id := LatLngToCell(p, 5)
	if got := id.Resolution(); got != 5 {
		t.Errorf("Resolution = %d, want 5", got)
	}
	if f := id.Face(); f < 0 || f >= 20 {
		t.Errorf("Face = %d out of range", f)
	}
	i, j := id.Coords()
	n := Resolution(5).Subdivisions()
	if i < 0 || j < 0 || i+j > n {
		t.Errorf("Coords = (%d, %d) out of range for n=%d", i, j, n)
	}
	if id.String() == "" {
		t.Error("String empty")
	}
}

func TestInvalidCellIDs(t *testing.T) {
	if CellID(0).Valid() {
		t.Error("zero CellID reported valid")
	}
	if LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, Resolution(-3)) != 0 {
		t.Error("invalid resolution should return zero cell")
	}
	// A non-canonical representation must be invalid.
	bogus := makeCell(5, 19, 0, 0) // face-19 corner vertex is owned by a lower face
	if bogus.Valid() {
		t.Error("non-canonical corner cell reported valid")
	}
}

func TestNeighbors(t *testing.T) {
	for _, p := range []geo.LatLng{
		{Lat: 40, Lng: -100}, {Lat: 0, Lng: 0}, {Lat: -30, Lng: 140},
	} {
		id := LatLngToCell(p, 3)
		nbs := id.Neighbors()
		if len(nbs) < 5 || len(nbs) > 8 {
			t.Errorf("cell %v has %d neighbors", id, len(nbs))
		}
		for _, nb := range nbs {
			if nb == id {
				t.Errorf("cell %v lists itself as neighbor", id)
			}
			if !nb.Valid() {
				t.Errorf("neighbor %v invalid", nb)
			}
			d := geo.AngularDistance(id.LatLng(), nb.LatLng())
			if d > 1.6*id.latticeSpacing() {
				t.Errorf("neighbor %v too far: %v rad", nb, d)
			}
		}
	}
}

func TestNeighborSymmetryMostly(t *testing.T) {
	// Geometric neighbor probing is exact away from face boundaries;
	// require at least 90% symmetry over a sample.
	total, symmetric := 0, 0
	for lat := -60.0; lat <= 60; lat += 21 {
		for lng := -170.0; lng <= 170; lng += 23 {
			id := LatLngToCell(geo.LatLng{Lat: lat, Lng: lng}, 2)
			for _, nb := range id.Neighbors() {
				total++
				for _, back := range nb.Neighbors() {
					if back == id {
						symmetric++
						break
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no neighbor pairs sampled")
	}
	if frac := float64(symmetric) / float64(total); frac < 0.9 {
		t.Errorf("neighbor symmetry %.2f < 0.9 (%d/%d)", frac, symmetric, total)
	}
}

func TestPentagonCount(t *testing.T) {
	// Exactly 12 cells (the icosahedron vertices) should have 5
	// neighbors at any resolution; spot-check at res 1 by counting
	// degree-5 cells.
	pentagons := 0
	ForEachCell(1, func(id CellID) {
		if len(id.Neighbors()) == 5 {
			pentagons++
		}
	})
	if pentagons != 12 {
		t.Errorf("found %d pentagon cells, want 12", pentagons)
	}
}

func TestDeterminism(t *testing.T) {
	p := geo.LatLng{Lat: 33.33, Lng: -97.77}
	a := LatLngToCell(p, 5)
	b := LatLngToCell(p, 5)
	if a != b {
		t.Errorf("LatLngToCell not deterministic: %v vs %v", a, b)
	}
}

func BenchmarkLatLngToCellRes5(b *testing.B) {
	pts := make([]geo.LatLng, 256)
	for i := range pts {
		pts[i] = geo.LatLng{
			Lat: float64(i%160) - 80,
			Lng: float64(i*7%360) - 180,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LatLngToCell(pts[i%len(pts)], 5)
	}
}

func BenchmarkCellToLatLng(b *testing.B) {
	id := LatLngToCell(geo.LatLng{Lat: 40, Lng: -100}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = id.LatLng()
	}
}
