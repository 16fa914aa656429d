package hexgrid

import (
	"context"
	"math"

	"leodivide/internal/geo"
	"leodivide/internal/par"
)

// Box is a latitude/longitude rectangle in degrees with inclusive
// bounds. It must not cross the antimeridian (LngLo <= LngHi).
type Box struct {
	LatLo, LatHi, LngLo, LngHi float64
}

// Contains reports whether p lies inside the box, bounds included.
func (b Box) Contains(p geo.LatLng) bool {
	return p.Lat >= b.LatLo && p.Lat <= b.LatHi && p.Lng >= b.LngLo && p.Lng <= b.LngHi
}

// angularDistance returns the central angle in radians from p to the
// nearest point of the box (0 inside it).
func (b Box) angularDistance(p geo.LatLng) float64 {
	if p.Lng >= b.LngLo && p.Lng <= b.LngHi {
		// Within the box's longitudes the nearest point lies on p's own
		// meridian.
		return geo.Radians(math.Max(0, math.Max(b.LatLo-p.Lat, p.Lat-b.LatHi)))
	}
	// Otherwise it lies on one of the two edge meridians.
	return math.Min(meridianArcDistance(p, b.LngLo, b.LatLo, b.LatHi),
		meridianArcDistance(p, b.LngHi, b.LatLo, b.LatHi))
}

// meridianArcDistance returns the central angle from p to the meridian
// arc at longitude lng between latitudes latLo and latHi: the
// perpendicular distance when the foot of the perpendicular lies on the
// arc, else the nearer endpoint.
func meridianArcDistance(p geo.LatLng, lng, latLo, latHi float64) float64 {
	d := math.Min(geo.AngularDistance(p, geo.LatLng{Lat: latLo, Lng: lng}),
		geo.AngularDistance(p, geo.LatLng{Lat: latHi, Lng: lng}))
	phi, dLng := geo.Radians(p.Lat), geo.Radians(p.Lng-lng)
	if along := math.Cos(phi) * math.Cos(dLng); along > 0 {
		// The meridian's great circle comes nearest to p on this half of
		// it, at the foot latitude.
		foot := geo.Degrees(math.Atan2(math.Sin(phi), along))
		if foot >= latLo && foot <= latHi {
			d = math.Min(d, math.Asin(math.Min(1, math.Abs(math.Cos(phi)*math.Sin(dLng)))))
		}
	}
	return d
}

// mayReach reports whether face f can own a cell at resolution r whose
// center lies in the box. Every center a face owns lies within the
// face's circumradius of its center, so a face is out of reach when the
// box is farther than that; one cell spacing of slack absorbs rounding.
func (b Box) mayReach(f int, r Resolution) bool {
	return b.angularDistance(faceCenter[f].LatLng()) <= faceRadius+edgeAngle/float64(r.Subdivisions())
}

// WalkBox enumerates the cells at resolution r whose centers lie in
// the box. Faces the box cannot reach are skipped; the rest are walked
// concurrently on up to workers goroutines (par.ForEach semantics),
// each face into its own shard in ForEachCellOnFace order, and visit
// sees every in-box cell with its center. The shards come back in
// ascending face order, so concatenating them reproduces ForEachCell's
// visit order restricted to the box. visit may only touch the shard it
// is given.
func WalkBox[S any](ctx context.Context, r Resolution, box Box, workers int,
	visit func(shard *S, id CellID, center geo.LatLng)) ([]S, error) {
	var faces []int
	for f := 0; f < 20; f++ {
		if box.mayReach(f, r) {
			faces = append(faces, f)
		}
	}
	return par.Map(ctx, workers, len(faces), func(k int) (S, error) {
		var shard S
		ForEachCellOnFace(r, faces[k], func(id CellID) {
			if c := id.LatLng(); box.Contains(c) {
				visit(&shard, id, c)
			}
		})
		return shard, nil
	})
}
