package orbit

import (
	"fmt"
	"math"

	"leodivide/internal/geo"
)

// SpeedOfLightKmPerSec is c in km/s.
const SpeedOfLightKmPerSec = 299792.458

// PropagationDelayMs returns the one-way propagation delay over a path
// length in km, in milliseconds.
func PropagationDelayMs(pathKm float64) float64 {
	return pathKm / SpeedOfLightKmPerSec * 1000
}

// BentPipeRTTMs returns the user-plane round-trip time through a
// bent-pipe hop: terminal → satellite → gateway and back, for a
// satellite at the given ECEF position. Processing and queueing are
// excluded (propagation only).
func BentPipeRTTMs(sat geo.Vec3, terminal, gateway geo.LatLng) float64 {
	up := sat.Sub(terminal.Vector().Scale(geo.EarthRadiusKm)).Norm()
	down := sat.Sub(gateway.Vector().Scale(geo.EarthRadiusKm)).Norm()
	return 2 * PropagationDelayMs(up+down)
}

// MinBentPipeRTTMs returns the best achievable bent-pipe RTT from a
// terminal at a given elevation mask: the satellite overhead, gateway
// co-located with the terminal (the geometric floor the paper's
// "high performance" framing rests on). For a 550 km shell this is
// ≈7.3 ms — the latency edge over geostationary service.
func MinBentPipeRTTMs(altitudeKm float64) float64 {
	return 2 * PropagationDelayMs(2*altitudeKm)
}

// GEOBentPipeRTTMs returns the same geometric floor for a
// geostationary satellite (≈35,786 km): ≈477 ms, the paper's "33,000
// km closer" comparison.
func GEOBentPipeRTTMs() float64 {
	const geoAltKm = 35786
	return 2 * PropagationDelayMs(2*geoAltKm)
}

// MaxDopplerHz returns the worst-case Doppler magnitude for a shell at
// the given carrier: the orbital velocity projected on the line of
// sight at the horizon.
func MaxDopplerHz(altitudeKm, freqGHz float64) float64 {
	o := CircularOrbit{AltitudeKm: altitudeKm, InclinationDeg: 53}
	v := o.SpeedKmPerSec()
	// At the horizon the line-of-sight component is v·cos(asin(...)),
	// bounded above by v·(re/(re+h))·... use the standard bound
	// v·cos(el_sat) with the satellite-side elevation angle:
	re := geo.EarthRadiusKm
	cosMax := re / (re + altitudeKm) * 1 // horizon geometry
	return v * cosMax / SpeedOfLightKmPerSec * freqGHz * 1e9
}

// LatencyProfile samples the best bent-pipe RTT achievable from a
// ground point across the shell over time, using the nearest gateway
// for the downlink leg.
type LatencyProfile struct {
	MinRTTMs, MeanRTTMs, MaxRTTMs float64
	// Samples is the number of epochs with at least one visible
	// satellite.
	Samples int
}

// BentPipeLatency evaluates the latency profile of a shell from a
// terminal with the given gateways and elevation mask over one orbital
// period.
func (w Walker) BentPipeLatency(terminal geo.LatLng, gateways []geo.LatLng,
	minElevationDeg float64, epochs int) (LatencyProfile, error) {
	if len(gateways) == 0 {
		return LatencyProfile{}, fmt.Errorf("orbit: no gateways")
	}
	orbits, err := w.Orbits()
	if err != nil {
		return LatencyProfile{}, err
	}
	if epochs <= 0 {
		epochs = 16
	}
	period := orbits[0].PeriodSeconds()
	profile := LatencyProfile{MinRTTMs: math.Inf(1)}
	sum := 0.0
	for e := 0; e < epochs; e++ {
		t := period * float64(e) / float64(epochs)
		bestRTT := math.Inf(1)
		for _, o := range orbits {
			sat := ECIToECEF(o.PositionECI(t), t)
			if ElevationDeg(sat, terminal) < minElevationDeg {
				continue
			}
			for _, gw := range gateways {
				if ElevationDeg(sat, gw) < 10 {
					continue
				}
				if rtt := BentPipeRTTMs(sat, terminal, gw); rtt < bestRTT {
					bestRTT = rtt
				}
			}
		}
		if math.IsInf(bestRTT, 1) {
			continue
		}
		profile.Samples++
		sum += bestRTT
		if bestRTT < profile.MinRTTMs {
			profile.MinRTTMs = bestRTT
		}
		if bestRTT > profile.MaxRTTMs {
			profile.MaxRTTMs = bestRTT
		}
	}
	if profile.Samples > 0 {
		profile.MeanRTTMs = sum / float64(profile.Samples)
	}
	return profile, nil
}
