// Package geo provides spherical geodesy primitives: geographic
// coordinates, unit vectors on the sphere, great-circle distance and
// bearing, spherical caps, and spherical polygon area / containment.
//
// The Earth is modelled as a sphere of radius EarthRadiusKm. That is the
// right fidelity for LEO coverage accounting, where cell areas and
// satellite densities are computed at the hundreds-of-km² scale; WGS84
// flattening shifts areas by <0.7% and is irrelevant to the model's
// conclusions.
package geo

import (
	"fmt"
	"math"
)

const (
	// EarthRadiusKm is the mean Earth radius in kilometres.
	EarthRadiusKm = 6371.0088

	// EarthAreaKm2 is the surface area of the spherical Earth model.
	EarthAreaKm2 = 4 * math.Pi * EarthRadiusKm * EarthRadiusKm
)

// LatLng is a geographic coordinate in degrees. Latitude is positive
// north, longitude positive east.
type LatLng struct {
	Lat, Lng float64
}

// String renders the coordinate as "lat,lng" with 5 decimal places
// (about 1 m resolution).
func (p LatLng) String() string { return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lng) }

// Valid reports whether the coordinate is a plausible point on Earth.
func (p LatLng) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// Normalize wraps longitude into [-180, 180) and clamps latitude into
// [-90, 90].
func (p LatLng) Normalize() LatLng {
	lat := p.Lat
	if lat > 90 {
		lat = 90
	}
	if lat < -90 {
		lat = -90
	}
	lng := math.Mod(p.Lng+180, 360)
	if lng < 0 {
		lng += 360
	}
	return LatLng{Lat: lat, Lng: lng - 180}
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Vec3 is a 3-vector, used as a unit vector on the sphere or an ECEF
// position.
type Vec3 struct {
	X, Y, Z float64
}

// Vector converts the coordinate to a unit vector.
func (p LatLng) Vector() Vec3 {
	lat, lng := Radians(p.Lat), Radians(p.Lng)
	cl := math.Cos(lat)
	return Vec3{X: cl * math.Cos(lng), Y: cl * math.Sin(lng), Z: math.Sin(lat)}
}

// LatLng converts a (not necessarily unit) vector back to a geographic
// coordinate.
func (v Vec3) LatLng() LatLng {
	r := math.Hypot(v.X, v.Y)
	return LatLng{Lat: Degrees(math.Atan2(v.Z, r)), Lng: Degrees(math.Atan2(v.Y, v.X))}
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v/|v|. Unit of the zero vector is the zero vector.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// AngleTo returns the angle between v and w in radians, computed with
// atan2 for numerical stability near 0 and π.
func (v Vec3) AngleTo(w Vec3) float64 {
	return math.Atan2(v.Cross(w).Norm(), v.Dot(w))
}

// DistanceKm returns the great-circle distance between a and b in km.
func DistanceKm(a, b LatLng) float64 {
	return a.Vector().AngleTo(b.Vector()) * EarthRadiusKm
}

// AngularDistance returns the central angle between a and b in radians.
func AngularDistance(a, b LatLng) float64 {
	return a.Vector().AngleTo(b.Vector())
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from north, in [0, 360).
func InitialBearing(a, b LatLng) float64 {
	la, lb := Radians(a.Lat), Radians(b.Lat)
	dl := Radians(b.Lng - a.Lng)
	y := math.Sin(dl) * math.Cos(lb)
	x := math.Cos(la)*math.Sin(lb) - math.Sin(la)*math.Cos(lb)*math.Cos(dl)
	brg := Degrees(math.Atan2(y, x))
	if brg < 0 {
		brg += 360
	}
	return brg
}

// Destination returns the point reached travelling distanceKm along the
// great circle from start at the given initial bearing (degrees).
func Destination(start LatLng, bearingDeg, distanceKm float64) LatLng {
	d := distanceKm / EarthRadiusKm
	brg := Radians(bearingDeg)
	la := Radians(start.Lat)
	lo := Radians(start.Lng)
	sinLat := math.Sin(la)*math.Cos(d) + math.Cos(la)*math.Sin(d)*math.Cos(brg)
	lat2 := math.Asin(sinLat)
	y := math.Sin(brg) * math.Sin(d) * math.Cos(la)
	x := math.Cos(d) - math.Sin(la)*sinLat
	lng2 := lo + math.Atan2(y, x)
	return LatLng{Lat: Degrees(lat2), Lng: Degrees(lng2)}.Normalize()
}
