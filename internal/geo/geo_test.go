package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Known city coordinates for distance sanity checks.
var (
	sfo = LatLng{Lat: 37.6213, Lng: -122.3790}
	jfk = LatLng{Lat: 40.6413, Lng: -73.7781}
	lhr = LatLng{Lat: 51.4700, Lng: -0.4543}
	syd = LatLng{Lat: -33.9399, Lng: 151.1753}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b   LatLng
		wantKm float64
		tolKm  float64
	}{
		{sfo, jfk, 4152, 30},
		{jfk, lhr, 5540, 40},
		{sfo, syd, 11940, 80},
		{sfo, sfo, 0, 1e-9},
	}
	for _, tc := range cases {
		if got := DistanceKm(tc.a, tc.b); math.Abs(got-tc.wantKm) > tc.tolKm {
			t.Errorf("DistanceKm(%v, %v) = %.1f, want %.1f±%.0f", tc.a, tc.b, got, tc.wantKm, tc.tolKm)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 uint16) bool {
		a := randPoint(lat1, lng1)
		b := randPoint(lat2, lng2)
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0 && d1 <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randPoint maps two uint16s onto the sphere, avoiding the exact poles.
func randPoint(a, b uint16) LatLng {
	return LatLng{
		Lat: float64(a)/65535*179 - 89.5,
		Lng: float64(b)/65535*360 - 180,
	}
}

func TestVectorRoundTripProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		p := randPoint(a, b)
		q := p.Vector().LatLng()
		return AngularDistance(p, q) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTripProperty(t *testing.T) {
	f := func(a, b uint16, brgRaw, distRaw uint16) bool {
		p := randPoint(a, b)
		if math.Abs(p.Lat) > 80 {
			return true // bearing round trips degrade near poles
		}
		bearing := float64(brgRaw) / 65535 * 360
		dist := 1 + float64(distRaw)/65535*5000
		q := Destination(p, bearing, dist)
		return math.Abs(DistanceKm(p, q)-dist) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	origin := LatLng{Lat: 10, Lng: 20}
	cases := []struct {
		to   LatLng
		want float64
	}{
		{LatLng{Lat: 20, Lng: 20}, 0},   // due north
		{LatLng{Lat: 0, Lng: 20}, 180},  // due south
		{LatLng{Lat: 10, Lng: 21}, 90},  // roughly east
		{LatLng{Lat: 10, Lng: 19}, 270}, // roughly west
	}
	for _, tc := range cases {
		got := InitialBearing(origin, tc.to)
		diff := math.Abs(got - tc.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 0.5 {
			t.Errorf("InitialBearing(%v -> %v) = %.2f, want %.1f", origin, tc.to, got, tc.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want LatLng
	}{
		{LatLng{Lat: 0, Lng: 190}, LatLng{Lat: 0, Lng: -170}},
		{LatLng{Lat: 0, Lng: -190}, LatLng{Lat: 0, Lng: 170}},
		{LatLng{Lat: 95, Lng: 0}, LatLng{Lat: 90, Lng: 0}},
		{LatLng{Lat: 45, Lng: 180}, LatLng{Lat: 45, Lng: -180}},
	}
	for _, tc := range cases {
		got := tc.in.Normalize()
		if math.Abs(got.Lat-tc.want.Lat) > 1e-9 || math.Abs(got.Lng-tc.want.Lng) > 1e-9 {
			t.Errorf("Normalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestValid(t *testing.T) {
	if !(LatLng{Lat: 45, Lng: -100}).Valid() {
		t.Error("valid point reported invalid")
	}
	for _, p := range []LatLng{
		{Lat: 91, Lng: 0}, {Lat: 0, Lng: 181}, {Lat: math.NaN(), Lng: 0},
	} {
		if p.Valid() {
			t.Errorf("%v reported valid", p)
		}
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 0, 0}
	w := Vec3{0, 1, 0}
	if got := v.Cross(w); got != (Vec3{0, 0, 1}) {
		t.Errorf("Cross = %v", got)
	}
	if got := v.Dot(w); got != 0 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.AngleTo(w); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("AngleTo = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{}).Unit(); got != (Vec3{}) {
		t.Errorf("Unit(zero) = %v", got)
	}
	if got := v.Add(w).Sub(w); got != v {
		t.Errorf("Add/Sub round trip = %v", got)
	}
	if got := v.Scale(2.5); got != (Vec3{2.5, 0, 0}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestAngleToStability(t *testing.T) {
	// Nearly identical vectors: dot-product acos would lose precision;
	// atan2 must not.
	v := LatLng{Lat: 45, Lng: 45}.Vector()
	w := LatLng{Lat: 45.0000001, Lng: 45}.Vector()
	got := v.AngleTo(w)
	want := Radians(0.0000001)
	if math.Abs(got-want)/want > 1e-3 {
		t.Errorf("AngleTo tiny angle = %v, want %v", got, want)
	}
}
