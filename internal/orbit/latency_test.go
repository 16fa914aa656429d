package orbit

import (
	"math"
	"testing"
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
