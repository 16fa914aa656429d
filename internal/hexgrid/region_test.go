package hexgrid

import (
	"math"
	"testing"

	"leodivide/internal/geo"
)

func TestBoundary(t *testing.T) {
	id := LatLngToCell(geo.LatLng{Lat: 40, Lng: -100}, 3)
	b := id.Boundary()
	if len(b) != 6 {
		t.Fatalf("hexagon boundary has %d vertices", len(b))
	}
	center := id.LatLng()
	spacing := id.latticeSpacing()
	for _, v := range b {
		d := geo.AngularDistance(center, v)
		// Voronoi vertices sit near one circumradius (~0.577 spacings)
		// from the center.
		if d < 0.3*spacing || d > 0.9*spacing {
			t.Errorf("boundary vertex at %.3f spacings", d/spacing)
		}
	}
	// The center must be inside its own boundary polygon.
	if !polygonContains(b, center) {
		t.Error("cell center outside its boundary")
	}
}

func TestBoundaryPentagon(t *testing.T) {
	// Find a pentagon cell at res 1 and check 5 vertices.
	var pent CellID
	ForEachCell(1, func(id CellID) {
		if pent == 0 && len(id.Neighbors()) == 5 {
			pent = id
		}
	})
	if pent == 0 {
		t.Fatal("no pentagon found")
	}
	if got := len(pent.Boundary()); got != 5 {
		t.Errorf("pentagon boundary has %d vertices", got)
	}
}

func TestCellAreasSumToSphere(t *testing.T) {
	// At res 1 the polygon areas must tile the sphere (within the
	// centroid-vertex approximation).
	total := 0.0
	ForEachCell(1, func(id CellID) {
		total += cellAreaKm2(id)
	})
	if math.Abs(total-geo.EarthAreaKm2)/geo.EarthAreaKm2 > 0.05 {
		t.Errorf("cell areas sum to %v, want ≈%v", total, geo.EarthAreaKm2)
	}
}

func TestCellAreaNearAverage(t *testing.T) {
	id := LatLngToCell(geo.LatLng{Lat: 40, Lng: -100}, 4)
	avg := Resolution(4).AvgCellAreaKm2()
	got := cellAreaKm2(id)
	if got < 0.6*avg || got > 1.5*avg {
		t.Errorf("cell area %v far from average %v", got, avg)
	}
}

// The polygon helpers below are the oracles for Boundary: a cell's
// boundary must enclose its center, and the boundaries at one
// resolution must tile the sphere.

// cellAreaKm2 returns the area of the cell's boundary polygon. Cells
// are near-uniform; individual areas vary around
// Resolution.AvgCellAreaKm2 with the grid's geodesic distortion
// (roughly ±25%).
func cellAreaKm2(c CellID) float64 {
	b := c.Boundary()
	if len(b) < 3 {
		return c.Resolution().AvgCellAreaKm2()
	}
	return polygonAreaKm2(b)
}

// polygonAreaKm2 returns the spherical area enclosed by a closed loop
// of vertices, summing the signed solid angles (Oosterom & Strackee) of
// a triangle fan. The polygon must be simple and smaller than a
// hemisphere.
func polygonAreaKm2(vs []geo.LatLng) float64 {
	if len(vs) < 3 {
		return 0
	}
	a := vs[0].Vector()
	total := 0.0
	for i := 1; i < len(vs)-1; i++ {
		b, c := vs[i].Vector(), vs[i+1].Vector()
		num := a.Dot(b.Cross(c))
		den := 1 + a.Dot(b) + b.Dot(c) + c.Dot(a)
		total += 2 * math.Atan2(num, den)
	}
	return math.Abs(total) * geo.EarthRadiusKm * geo.EarthRadiusKm
}

// polygonContains reports whether p lies inside the closed loop of
// vertices, by the winding of p against each edge's great circle.
// Points exactly on an edge may be reported either way.
func polygonContains(vs []geo.LatLng, p geo.LatLng) bool {
	n := len(vs)
	if n < 3 {
		return false
	}
	v := p.Vector()
	total := 0.0
	for i := 0; i < n; i++ {
		a := vs[i].Vector()
		b := vs[(i+1)%n].Vector()
		// Project the edge endpoints onto the plane orthogonal to v and
		// take the turn angle.
		pa := a.Sub(v.Scale(a.Dot(v)))
		pb := b.Sub(v.Scale(b.Dot(v)))
		if pa.Norm() < 1e-12 || pb.Norm() < 1e-12 {
			return true // p coincides with a vertex
		}
		ang := pa.Unit().AngleTo(pb.Unit())
		if v.Dot(pa.Cross(pb)) < 0 {
			ang = -ang
		}
		total += ang
	}
	return math.Abs(total) > math.Pi // winding number != 0
}

func TestPolygonAreaOctant(t *testing.T) {
	// The octant (0,0), (0,90), (90,*) covers 1/8 of the sphere.
	oct := []geo.LatLng{{Lat: 0, Lng: 0}, {Lat: 0, Lng: 90}, {Lat: 90, Lng: 0}}
	want := geo.EarthAreaKm2 / 8
	if got := polygonAreaKm2(oct); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("octant area = %v, want %v", got, want)
	}
}

func TestPolygonContains(t *testing.T) {
	square := []geo.LatLng{
		{Lat: 0, Lng: 0}, {Lat: 0, Lng: 10}, {Lat: 10, Lng: 10}, {Lat: 10, Lng: 0},
	}
	if !polygonContains(square, geo.LatLng{Lat: 5, Lng: 5}) {
		t.Error("polygon should contain interior point")
	}
	if polygonContains(square, geo.LatLng{Lat: 20, Lng: 5}) {
		t.Error("polygon should not contain exterior point")
	}
	if polygonContains(square, geo.LatLng{Lat: -5, Lng: -5}) {
		t.Error("polygon should not contain exterior point on other side")
	}
	if polygonContains(nil, geo.LatLng{}) {
		t.Error("degenerate polygon contains nothing")
	}
}
