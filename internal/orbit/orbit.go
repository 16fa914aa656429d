// Package orbit provides the orbital-mechanics substrate of the capacity
// model: circular Keplerian orbits, Walker-delta constellation
// generation, propagation to Earth-fixed subsatellite points, visibility
// geometry, and — the quantity the sizing model actually consumes — the
// surface density of a shell's satellites as a function of latitude.
//
// A LEO shell of inclination i spreads its satellites non-uniformly over
// the Earth: density peaks just below the inclination latitude and
// thins toward the equator. The paper's peak-demand argument converts a
// required local satellite density at the peak-demand cell's latitude
// into a total constellation size; DensityFactor supplies the analytic
// conversion and the propagation API lets tests confirm it empirically.
package orbit

import (
	"fmt"
	"math"

	"leodivide/internal/geo"
)

// Physical constants.
const (
	// MuEarth is Earth's gravitational parameter in km³/s².
	MuEarth = 398600.4418

	// EarthRotationRadPerSec is Earth's sidereal rotation rate.
	EarthRotationRadPerSec = 7.2921159e-5

	// StarlinkAltitudeKm is the altitude of Starlink's principal shell.
	StarlinkAltitudeKm = 550

	// StarlinkInclinationDeg is the inclination of Starlink's principal
	// shell.
	StarlinkInclinationDeg = 53
)

// CircularOrbit is a circular orbit defined by altitude, inclination,
// right ascension of the ascending node (RAAN) and the satellite's
// initial phase along the orbit. Angles are in degrees.
type CircularOrbit struct {
	AltitudeKm     float64
	InclinationDeg float64
	RAANDeg        float64
	PhaseDeg       float64
}

// RadiusKm returns the orbital radius from Earth's center.
func (o CircularOrbit) RadiusKm() float64 { return geo.EarthRadiusKm + o.AltitudeKm }

// PeriodSeconds returns the orbital period.
func (o CircularOrbit) PeriodSeconds() float64 {
	r := o.RadiusKm()
	return 2 * math.Pi * math.Sqrt(r*r*r/MuEarth)
}

// MeanMotionRadPerSec returns the angular rate along the orbit.
func (o CircularOrbit) MeanMotionRadPerSec() float64 {
	return 2 * math.Pi / o.PeriodSeconds()
}

// SpeedKmPerSec returns the orbital speed.
func (o CircularOrbit) SpeedKmPerSec() float64 {
	return math.Sqrt(MuEarth / o.RadiusKm())
}

// PositionECI returns the satellite's Earth-centered inertial position
// at t seconds after epoch.
func (o CircularOrbit) PositionECI(t float64) geo.Vec3 {
	nu := geo.Radians(o.PhaseDeg) + o.MeanMotionRadPerSec()*t
	inc := geo.Radians(o.InclinationDeg)
	raan := geo.Radians(o.RAANDeg)
	// Position in the orbital plane (ascending node along +x').
	x := math.Cos(nu)
	y := math.Sin(nu) * math.Cos(inc)
	z := math.Sin(nu) * math.Sin(inc)
	// Rotate ascending node to RAAN about +z.
	cr, sr := math.Cos(raan), math.Sin(raan)
	return geo.Vec3{
		X: cr*x - sr*y,
		Y: sr*x + cr*y,
		Z: z,
	}.Scale(o.RadiusKm())
}

// ECIToECEF rotates an ECI position into the Earth-fixed frame at t
// seconds after epoch, with the frames aligned at t = 0.
func ECIToECEF(p geo.Vec3, t float64) geo.Vec3 {
	theta := EarthRotationRadPerSec * t
	c, s := math.Cos(theta), math.Sin(theta)
	return geo.Vec3{
		X: c*p.X + s*p.Y,
		Y: -s*p.X + c*p.Y,
		Z: p.Z,
	}
}

// Walker describes a Walker-delta constellation: Total satellites in
// Planes evenly spaced planes at common altitude and inclination, with
// relative phasing F between adjacent planes (Walker notation
// i: T/P/F).
type Walker struct {
	AltitudeKm     float64
	InclinationDeg float64
	Total          int
	Planes         int
	Phasing        int
}

// StarlinkShell1 returns the approximate geometry of Starlink's
// principal (53°, 550 km) shell: 72 planes of 22 satellites.
func StarlinkShell1() Walker {
	return Walker{
		AltitudeKm:     StarlinkAltitudeKm,
		InclinationDeg: StarlinkInclinationDeg,
		Total:          72 * 22,
		Planes:         72,
		Phasing:        39,
	}
}

// Validate reports whether the constellation parameters are coherent.
func (w Walker) Validate() error {
	if w.Total <= 0 || w.Planes <= 0 {
		return fmt.Errorf("orbit: walker needs positive total (%d) and planes (%d)", w.Total, w.Planes)
	}
	if w.Total%w.Planes != 0 {
		return fmt.Errorf("orbit: walker total %d not divisible by planes %d", w.Total, w.Planes)
	}
	if w.AltitudeKm <= 0 {
		return fmt.Errorf("orbit: walker altitude %v must be positive", w.AltitudeKm)
	}
	if w.InclinationDeg <= 0 || w.InclinationDeg > 180 {
		return fmt.Errorf("orbit: walker inclination %v out of range", w.InclinationDeg)
	}
	return nil
}

// Orbits expands the constellation into per-satellite orbits.
func (w Walker) Orbits() ([]CircularOrbit, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	perPlane := w.Total / w.Planes
	out := make([]CircularOrbit, 0, w.Total)
	for p := 0; p < w.Planes; p++ {
		raan := 360 * float64(p) / float64(w.Planes)
		phaseOffset := 360 * float64(w.Phasing) * float64(p) / float64(w.Total)
		for s := 0; s < perPlane; s++ {
			out = append(out, CircularOrbit{
				AltitudeKm:     w.AltitudeKm,
				InclinationDeg: w.InclinationDeg,
				RAANDeg:        raan,
				PhaseDeg:       math.Mod(360*float64(s)/float64(perPlane)+phaseOffset, 360),
			})
		}
	}
	return out, nil
}

// DensityFactor returns the ratio of the shell's satellite surface
// density at latitude lat to the global mean density N/A_earth.
//
// For a shell of inclination i, a satellite's latitude over time has
// probability density cos(φ) / (π·sqrt(sin²i − sin²φ)); dividing by the
// area of the latitude band yields a surface density enhancement of
//
//	f(φ) = 2 / (π · sqrt(sin²i − sin²φ)),   |φ| < i.
//
// The factor integrates to 1 over the sphere and diverges at φ = ±i
// (satellites linger at the turning latitude). Latitudes above the
// inclination see zero density. To keep the model usable at the turning
// latitude the factor is capped at the value one lattice-spacing inside
// the band edge.
func (w Walker) DensityFactor(latDeg float64) float64 {
	return DensityFactor(w.InclinationDeg, latDeg)
}

// DensityFactor is the shell-density enhancement for an inclination and
// latitude, both in degrees. See Walker.DensityFactor.
func DensityFactor(inclinationDeg, latDeg float64) float64 {
	inc := geo.Radians(clampInclination(inclinationDeg))
	phi := geo.Radians(math.Abs(latDeg))
	si, sp := math.Sin(inc), math.Sin(phi)
	if sp >= si {
		// At or beyond the turning latitude: return the capped edge
		// value so callers sizing for a cell at exactly the inclination
		// latitude get a finite answer.
		sp = si * math.Cos(0.5*math.Pi/180) // half a degree inside
	}
	d := si*si - sp*sp
	const minD = 1e-6
	if d < minD {
		d = minD
	}
	return 2 / (math.Pi * math.Sqrt(d))
}

// clampInclination folds retrograde inclinations into [0, 90].
func clampInclination(inc float64) float64 {
	if inc > 90 {
		inc = 180 - inc
	}
	if inc < 0 {
		inc = -inc
	}
	return inc
}

// CoverageRadiusKm returns the radius on the ground (along the surface)
// of the region a satellite at the shell's altitude can serve with the
// given minimum elevation angle in degrees.
func CoverageRadiusKm(altitudeKm, minElevationDeg float64) float64 {
	re := geo.EarthRadiusKm
	e := geo.Radians(minElevationDeg)
	// Central angle from subsatellite point to the edge of coverage.
	lam := math.Acos(re*math.Cos(e)/(re+altitudeKm)) - e
	return re * lam
}

// ElevationDeg returns the elevation angle of the satellite at ECEF
// position sat as seen from ground point p, in degrees. Negative values
// mean the satellite is below the horizon.
func ElevationDeg(sat geo.Vec3, p geo.LatLng) float64 {
	ground := p.Vector().Scale(geo.EarthRadiusKm)
	los := sat.Sub(ground)
	up := p.Vector()
	sinEl := los.Dot(up) / los.Norm()
	return geo.Degrees(math.Asin(sinEl))
}
