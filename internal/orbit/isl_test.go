package orbit

import (
	"math"
	"testing"

	"leodivide/internal/geo"
)

func TestISLGridStructure(t *testing.T) {
	w := Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 72, Planes: 12, Phasing: 1}
	g, err := w.ISLGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Links) != 72 {
		t.Fatalf("links for %d satellites", len(g.Links))
	}
	totalDegree := 0
	for i := range g.Links {
		if d := len(g.Links[i]); d < 3 || d > 6 {
			t.Fatalf("satellite %d has degree %d, want 3-6", i, d)
		} else {
			totalDegree += d
		}
		// Symmetry: every link is bidirectional.
		for _, j := range g.Links[i] {
			found := false
			for _, back := range g.Links[j] {
				if back == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("link %d->%d not symmetric", i, j)
			}
		}
	}
	// Mean degree 4: two undirected links initiated per satellite.
	if mean := float64(totalDegree) / float64(len(g.Links)); mean < 3.9 || mean > 4.1 {
		t.Errorf("mean degree = %v, want 4", mean)
	}
}

func TestISLGridErrors(t *testing.T) {
	bad := Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 4, Planes: 2, Phasing: 0}
	if _, err := bad.ISLGrid(); err == nil {
		t.Error("tiny shell should fail")
	}
	invalid := Walker{Total: 7, Planes: 3, AltitudeKm: 550, InclinationDeg: 53}
	if _, err := invalid.ISLGrid(); err == nil {
		t.Error("invalid shell should fail")
	}
}

func TestISLStats(t *testing.T) {
	w := StarlinkShell1() // 72 planes × 22
	g, err := w.ISLGrid()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	// In-plane spacing: 2·r·sin(π/22) ≈ 985 km for the 550 km shell.
	r := geo.EarthRadiusKm + 550
	wantInPlane := 2 * r * math.Sin(math.Pi/22)
	if math.Abs(stats.InPlaneKm-wantInPlane) > 1 {
		t.Errorf("in-plane link = %v km, want %v", stats.InPlaneKm, wantInPlane)
	}
	// Cross-plane links vary with latitude but stay within sane bounds.
	if stats.CrossPlaneMinKm <= 0 || stats.CrossPlaneMaxKm > 2500 {
		t.Errorf("cross-plane range [%v, %v] km implausible",
			stats.CrossPlaneMinKm, stats.CrossPlaneMaxKm)
	}
	if stats.CrossPlaneMinKm > stats.CrossPlaneMaxKm {
		t.Error("cross-plane min exceeds max")
	}
}

func TestISLRoute(t *testing.T) {
	w := StarlinkShell1()
	g, err := w.ISLGrid()
	if err != nil {
		t.Fatal(err)
	}
	nyc := geo.LatLng{Lat: 40.7, Lng: -74.0}
	la := geo.LatLng{Lat: 34.1, Lng: -118.2}
	path, err := g.Route(nyc, la, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if path.Hops < 1 || path.Hops > 30 {
		t.Errorf("NYC-LA hops = %d", path.Hops)
	}
	// The great-circle distance is ~3,940 km; the ISL path must exceed
	// it but stay within a small multiple, and beat terrestrial fiber
	// latency assumptions at c.
	gc := geo.DistanceKm(nyc, la)
	if path.PathKm < gc {
		t.Errorf("path %v km shorter than great circle %v", path.PathKm, gc)
	}
	if path.PathKm > 3*gc {
		t.Errorf("path %v km more than 3x great circle", path.PathKm)
	}
	if path.OneWayMs < 13 || path.OneWayMs > 40 {
		t.Errorf("one-way latency = %v ms", path.OneWayMs)
	}
	// Same endpoint: zero hops.
	self, err := g.Route(nyc, nyc, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if self.Hops != 0 {
		t.Errorf("self route hops = %d", self.Hops)
	}
	// Beyond coverage: error.
	if _, err := g.Route(geo.LatLng{Lat: 80, Lng: 0}, la, 25, 0); err == nil {
		t.Error("uncovered endpoint should fail")
	}
}
