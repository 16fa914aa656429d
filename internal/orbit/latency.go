package orbit

// SpeedOfLightKmPerSec is c in km/s.
const SpeedOfLightKmPerSec = 299792.458

// PropagationDelayMs returns the one-way propagation delay over a path
// length in km, in milliseconds.
func PropagationDelayMs(pathKm float64) float64 {
	return pathKm / SpeedOfLightKmPerSec * 1000
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
