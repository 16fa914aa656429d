package orbit

import (
	"math"
	"testing"
	"testing/quick"

	"leodivide/internal/geo"
)

func starlinkOrbit() CircularOrbit {
	return CircularOrbit{AltitudeKm: 550, InclinationDeg: 53}
}

func TestPeriodAndSpeed(t *testing.T) {
	o := starlinkOrbit()
	// A 550 km circular orbit has a ~95.6-minute period and ~7.59 km/s
	// speed.
	if got := o.PeriodSeconds(); math.Abs(got-5736) > 30 {
		t.Errorf("period = %.0f s, want ≈5736", got)
	}
	if got := 2 * math.Pi * o.RadiusKm() / o.PeriodSeconds(); math.Abs(got-7.59) > 0.03 {
		t.Errorf("speed = %.3f km/s, want ≈7.59", got)
	}
	if got := o.MeanMotionRadPerSec() * o.PeriodSeconds(); math.Abs(got-2*math.Pi) > 1e-9 {
		t.Errorf("mean motion × period = %v, want 2π", got)
	}
}

// Property: the orbit radius is conserved along the trajectory.
func TestRadiusInvariantProperty(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 77, PhaseDeg: 13}
	f := func(tRaw uint32) bool {
		tt := float64(tRaw%86400) + float64(tRaw%1000)/1000
		r := o.PositionECI(tt).Norm()
		return math.Abs(r-o.RadiusKm()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ECI↔ECEF round-trips (the frame rotation at -t undoes the
// one at t).
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(x, y, z int16, tRaw uint32) bool {
		p := geo.Vec3{X: float64(x), Y: float64(y), Z: float64(z)}
		tt := float64(tRaw % 86400)
		q := ECIToECEF(ECIToECEF(p, tt), -tt)
		return q.Sub(p).Norm() < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: subsatellite latitude never exceeds the inclination.
func TestSubsatelliteLatitudeBound(t *testing.T) {
	o := starlinkOrbit()
	for i := 0; i < 500; i++ {
		tt := o.PeriodSeconds() * float64(i) / 500
		p := subsatellitePoint(o, tt)
		if math.Abs(p.Lat) > o.InclinationDeg+1e-6 {
			t.Fatalf("subsatellite latitude %v exceeds inclination", p.Lat)
		}
	}
}

func TestWalkerOrbits(t *testing.T) {
	w := Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 60, Planes: 6, Phasing: 2}
	orbits, err := w.Orbits()
	if err != nil {
		t.Fatal(err)
	}
	if len(orbits) != 60 {
		t.Fatalf("got %d orbits, want 60", len(orbits))
	}
	// All share altitude and inclination; RAANs are evenly spaced.
	raans := make(map[float64]int)
	for _, o := range orbits {
		if o.AltitudeKm != 550 || o.InclinationDeg != 53 {
			t.Fatalf("orbit parameters corrupted: %+v", o)
		}
		raans[o.RAANDeg]++
	}
	if len(raans) != 6 {
		t.Errorf("got %d distinct RAANs, want 6", len(raans))
	}
	for raan, n := range raans {
		if n != 10 {
			t.Errorf("RAAN %v has %d satellites, want 10", raan, n)
		}
	}
}

func TestWalkerValidate(t *testing.T) {
	bad := []Walker{
		{Total: 0, Planes: 1, AltitudeKm: 550, InclinationDeg: 53},
		{Total: 10, Planes: 3, AltitudeKm: 550, InclinationDeg: 53},
		{Total: 10, Planes: 5, AltitudeKm: -1, InclinationDeg: 53},
		{Total: 10, Planes: 5, AltitudeKm: 550, InclinationDeg: 0},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", w)
		}
	}
	if err := StarlinkShell1().Validate(); err != nil {
		t.Errorf("StarlinkShell1 invalid: %v", err)
	}
}

func TestDensityFactorShape(t *testing.T) {
	// The profile is symmetric, minimal at the equator, and rises
	// toward the inclination latitude.
	inc := 53.0
	if got, want := DensityFactor(inc, 0), 2/(math.Pi*math.Sin(geo.Radians(inc))); math.Abs(got-want) > 1e-9 {
		t.Errorf("equator density = %v, want %v", got, want)
	}
	if DensityFactor(inc, 30) != DensityFactor(inc, -30) {
		t.Error("density not symmetric in latitude")
	}
	prev := 0.0
	for lat := 0.0; lat <= 50; lat += 5 {
		f := DensityFactor(inc, lat)
		if f <= prev {
			t.Fatalf("density not increasing at lat %v", lat)
		}
		prev = f
	}
	// Beyond the inclination the factor stays finite (capped).
	if f := DensityFactor(inc, 80); math.IsInf(f, 0) || f <= 0 {
		t.Errorf("density beyond inclination = %v", f)
	}
	// Retrograde inclinations fold into [0, 90].
	if DensityFactor(97, 40) != DensityFactor(83, 40) {
		t.Error("retrograde inclination not folded")
	}
}

// The density factor integrates to 1 over the sphere; restricted to
// two degrees inside the inclination band (DensityFactor is
// intentionally capped, not zero, beyond the band so sizing stays
// finite there), the integral is (2/π)·asin(sin(i−2°)/sin(i)) ≈ 0.852
// for i = 53°.
func TestDensityFactorNormalization(t *testing.T) {
	inc := 53.0
	edge := inc - 2
	sum := 0.0
	const steps = 20000
	dlat := 2 * edge / steps
	for i := 0; i < steps; i++ {
		lat := -edge + 2*edge*(float64(i)+0.5)/steps
		// Fraction of the sphere's area in this latitude band.
		w := math.Cos(geo.Radians(lat)) * geo.Radians(dlat) / 2
		sum += DensityFactor(inc, lat) * w
	}
	want := 2 / math.Pi * math.Asin(math.Sin(geo.Radians(edge))/math.Sin(geo.Radians(inc)))
	if math.Abs(sum-want) > 0.01 {
		t.Errorf("density integral within band = %v, want ≈%v", sum, want)
	}
}

func TestLatitudeHistogramMatchesAnalytic(t *testing.T) {
	w := Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 220, Planes: 20, Phasing: 3}
	hist, err := latitudeHistogram(w, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Compare empirical to analytic density enhancement at mid
	// latitudes (away from the singular turning latitude).
	for _, lat := range []float64{0, 15, 30, 40} {
		bin := int((lat + 90) / 5)
		analytic := DensityFactor(53, lat+2.5)
		if hist[bin] == 0 {
			t.Fatalf("empty histogram bin at lat %v", lat)
		}
		ratio := hist[bin] / analytic
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("lat %v: empirical/analytic = %.3f, want within 15%%", lat, ratio)
		}
	}
	// No mass above the inclination band (plus one bin of slack).
	for bin := int((53+90)/5) + 2; bin < len(hist); bin++ {
		if hist[bin] != 0 {
			t.Errorf("histogram mass at bin %d beyond inclination", bin)
		}
	}
}

func TestCoverageRadius(t *testing.T) {
	// At 0° elevation the horizon distance from 550 km is ~2,550 km
	// along the surface; at 90° it is zero.
	if got := CoverageRadiusKm(550, 0); math.Abs(got-2550) > 50 {
		t.Errorf("coverage at 0 deg = %.0f km, want ≈2550", got)
	}
	if got := CoverageRadiusKm(550, 90); got > 1 {
		t.Errorf("coverage at 90 deg = %.1f km, want ≈0", got)
	}
	if a, b := CoverageRadiusKm(550, 25), CoverageRadiusKm(550, 40); a <= b {
		t.Errorf("coverage should shrink with elevation: %v vs %v", a, b)
	}
	if a, b := CoverageRadiusKm(550, 25), CoverageRadiusKm(1100, 25); a >= b {
		t.Errorf("coverage should grow with altitude: %v vs %v", a, b)
	}
}

func TestElevation(t *testing.T) {
	p := geo.LatLng{Lat: 40, Lng: -100}
	// Satellite directly overhead.
	overhead := p.Vector().Scale(geo.EarthRadiusKm + 550)
	if got := ElevationDeg(overhead, p); math.Abs(got-90) > 1e-6 {
		t.Errorf("overhead elevation = %v, want 90", got)
	}
	// Satellite on the other side of the Earth is far below horizon.
	antipode := p.Vector().Scale(-(geo.EarthRadiusKm + 550))
	if got := ElevationDeg(antipode, p); got > -80 {
		t.Errorf("antipodal elevation = %v, want ≈-90", got)
	}
}

func TestSubsatelliteGroundTrackMoves(t *testing.T) {
	o := starlinkOrbit()
	p0 := subsatellitePoint(o, 0)
	p1 := subsatellitePoint(o, 60)
	if geo.DistanceKm(p0, p1) < 100 {
		t.Errorf("ground track barely moved in 60s: %v -> %v", p0, p1)
	}
}

func BenchmarkPropagateShell(b *testing.B) {
	orbits, err := StarlinkShell1().Orbits()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range orbits {
			_ = ECIToECEF(o.PositionECI(float64(i)), float64(i))
		}
	}
}

// subsatellitePoint returns the geographic point directly beneath the
// satellite at t seconds after epoch.
func subsatellitePoint(o CircularOrbit, t float64) geo.LatLng {
	return ECIToECEF(o.PositionECI(t), t).LatLng()
}

// latitudeHistogram propagates the constellation over one orbital
// period in steps and counts subsatellite points into latitude bins of
// binDeg degrees, returning the empirical per-bin density enhancement
// (ratio of observed to uniform density). Bins outside the inclination
// band are zero. It is the simulated-geometry oracle for DensityFactor.
func latitudeHistogram(w Walker, binDeg float64, steps int) ([]float64, error) {
	orbits, err := w.Orbits()
	if err != nil {
		return nil, err
	}
	nbins := int(math.Ceil(180 / binDeg))
	counts := make([]float64, nbins)
	period := orbits[0].PeriodSeconds()
	total := 0.0
	for _, o := range orbits {
		for s := 0; s < steps; s++ {
			pt := subsatellitePoint(o, period*float64(s)/float64(steps))
			bin := min(max(int((pt.Lat+90)/binDeg), 0), nbins-1)
			counts[bin]++
			total++
		}
	}
	// Observed fraction over the band's share of the sphere's area.
	out := make([]float64, nbins)
	for b := range out {
		latLo := geo.Radians(-90 + binDeg*float64(b))
		latHi := geo.Radians(-90 + binDeg*float64(b+1))
		areaFrac := (math.Sin(latHi) - math.Sin(latLo)) / 2
		out[b] = (counts[b] / total) / areaFrac
	}
	return out, nil
}

// densityFactorOneStep is DensityFactor as one function, taking the
// inclination's sine on every call.
func densityFactorOneStep(inclinationDeg, latDeg float64) float64 {
	inc := geo.Radians(clampInclination(inclinationDeg))
	phi := geo.Radians(math.Abs(latDeg))
	si, sp := math.Sin(inc), math.Sin(phi)
	if sp >= si {
		sp = si * math.Cos(0.5*math.Pi/180)
	}
	d := si*si - sp*sp
	const minD = 1e-6
	if d < minD {
		d = minD
	}
	return 2 / (math.Pi * math.Sqrt(d))
}

// TestDensityFactorSplitMatchesOneStep: the split form a latitude scan
// uses, and DensityFactor on top of it, give the one-step factor bit
// for bit, from pole to pole at every inclination class: equatorial,
// inclined, polar, retrograde and negative.
func TestDensityFactorSplitMatchesOneStep(t *testing.T) {
	for _, inc := range []float64{0, 1e-9, 30, 43, 53, 70, 87.9, 90, 97.6, 120, 180, -10, -53} {
		si := InclinationSine(inc)
		for k := -3600; k <= 3600; k++ {
			lat := float64(k) / 40
			want := math.Float64bits(densityFactorOneStep(inc, lat))
			if got := math.Float64bits(DensityFactorSin(si, lat)); got != want {
				t.Fatalf("DensityFactorSin(sin %v°, %v) bits %x, one-step %x", inc, lat, got, want)
			}
			if got := math.Float64bits(DensityFactor(inc, lat)); got != want {
				t.Fatalf("DensityFactor(%v, %v) bits %x, one-step %x", inc, lat, got, want)
			}
		}
	}
}
