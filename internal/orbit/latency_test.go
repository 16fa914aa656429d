package orbit

import (
	"math"
	"testing"

	"leodivide/internal/geo"
)

func TestPropagationDelay(t *testing.T) {
	// Light crosses ~300 km in 1 ms.
	if got := PropagationDelayMs(299792.458); math.Abs(got-1000) > 1e-9 {
		t.Errorf("delay over one light-second = %v ms", got)
	}
}

func TestMinBentPipeRTT(t *testing.T) {
	// The paper's latency story: LEO at 550 km has a ~7.3 ms geometric
	// floor vs ~477 ms for GEO.
	leo := MinBentPipeRTTMs(550)
	if math.Abs(leo-7.34) > 0.05 {
		t.Errorf("LEO RTT floor = %v ms, want ≈7.34", leo)
	}
	geoRTT := GEOBentPipeRTTMs()
	if math.Abs(geoRTT-477.5) > 1 {
		t.Errorf("GEO RTT floor = %v ms, want ≈477.5", geoRTT)
	}
	if geoRTT/leo < 60 {
		t.Errorf("GEO/LEO latency ratio = %v, want ≈65", geoRTT/leo)
	}
}

func TestBentPipeRTT(t *testing.T) {
	terminal := geo.LatLng{Lat: 40, Lng: -100}
	gateway := geo.LatLng{Lat: 40, Lng: -100} // co-located
	overhead := terminal.Vector().Scale(geo.EarthRadiusKm + 550)
	got := BentPipeRTTMs(overhead, terminal, gateway)
	if math.Abs(got-MinBentPipeRTTMs(550)) > 1e-9 {
		t.Errorf("co-located bent pipe RTT = %v, want floor %v", got, MinBentPipeRTTMs(550))
	}
	// A distant gateway adds delay.
	far := geo.LatLng{Lat: 40, Lng: -90}
	if BentPipeRTTMs(overhead, terminal, far) <= got {
		t.Error("distant gateway should add delay")
	}
}

func TestDopplerShift(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53}
	ground := geo.LatLng{Lat: 0, Lng: 0}
	const freq = 11.7
	// Doppler magnitude stays under the horizon bound.
	bound := MaxDopplerHz(550, freq)
	if bound < 200e3 || bound > 350e3 {
		t.Errorf("max Doppler = %v Hz, want ≈270 kHz at Ku", bound)
	}
	maxSeen := 0.0
	for tt := 0.0; tt < o.PeriodSeconds(); tt += 20 {
		d := dopplerShiftHz(o, ground, tt, freq)
		if a := math.Abs(d); a > maxSeen {
			maxSeen = a
		}
	}
	if maxSeen > bound*1.05 {
		t.Errorf("observed Doppler %v exceeds bound %v", maxSeen, bound)
	}
	if maxSeen < bound*0.3 {
		t.Errorf("observed Doppler %v implausibly small vs bound %v", maxSeen, bound)
	}
}

func TestBentPipeLatencyProfile(t *testing.T) {
	w := Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 396, Planes: 18, Phasing: 1}
	terminal := geo.LatLng{Lat: 38, Lng: -100}
	gateways := []geo.LatLng{
		{Lat: 37.6, Lng: -97.8}, // Cheney KS
		{Lat: 39.7, Lng: -105},  // Denver
	}
	p, err := w.BentPipeLatency(terminal, gateways, 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples == 0 {
		t.Fatal("no covered epochs")
	}
	if p.MinRTTMs < MinBentPipeRTTMs(550) {
		t.Errorf("min RTT %v below the geometric floor", p.MinRTTMs)
	}
	if p.MinRTTMs > 60 || p.MaxRTTMs > 100 {
		t.Errorf("implausible LEO RTTs: min %v max %v", p.MinRTTMs, p.MaxRTTMs)
	}
	if p.MeanRTTMs < p.MinRTTMs || p.MeanRTTMs > p.MaxRTTMs {
		t.Errorf("mean RTT %v outside [min, max]", p.MeanRTTMs)
	}
	if _, err := w.BentPipeLatency(terminal, nil, 25, 8); err == nil {
		t.Error("no gateways should fail")
	}
}

// dopplerShiftHz returns the carrier Doppler shift observed at a ground
// point for the satellite at time t, at the given carrier frequency in
// GHz, from a finite-difference range rate. Positive values mean the
// satellite is approaching. It is the oracle for MaxDopplerHz's bound.
func dopplerShiftHz(o CircularOrbit, ground geo.LatLng, t, freqGHz float64) float64 {
	const dt = 0.5
	g := ground.Vector().Scale(geo.EarthRadiusKm)
	r1 := ECIToECEF(o.PositionECI(t), t).Sub(g).Norm()
	r2 := ECIToECEF(o.PositionECI(t+dt), t+dt).Sub(g).Norm()
	rangeRate := (r2 - r1) / dt // km/s, positive = receding
	return -rangeRate / SpeedOfLightKmPerSec * freqGHz * 1e9
}
