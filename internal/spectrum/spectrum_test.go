package spectrum

import (
	"math"
	"testing"
)

func TestScheduleSTotals(t *testing.T) {
	// The totals printed in the paper's Table 1.
	if got := UTDownlinkMHzOf(ScheduleS()); got != 3850 {
		t.Errorf("Schedule S UT downlink = %v MHz, want 3850", got)
	}
	if got := UTBeamsOf(ScheduleS()); got != 24 {
		t.Errorf("UTBeamsOf = %d, want 24", got)
	}
}

func TestScheduleSBands(t *testing.T) {
	bands := ScheduleS()
	if len(bands) != 5 {
		t.Fatalf("got %d bands, want 5", len(bands))
	}
	for _, b := range bands {
		if b.HighGHz <= b.LowGHz {
			t.Errorf("band %s: inverted range", b.Name)
		}
		wantWidth := (b.HighGHz - b.LowGHz) * 1000
		if math.Abs(b.WidthMHz-wantWidth) > 1e-9 {
			t.Errorf("band %s: width %v MHz inconsistent with range (%v)", b.Name, b.WidthMHz, wantWidth)
		}
		if b.Beams <= 0 {
			t.Errorf("band %s: no beams", b.Name)
		}
	}
	// The 71-76 GHz band serves gateways only.
	if bands[4].Use != DownlinkGateway {
		t.Errorf("71-76 GHz use = %v, want gateway-only", bands[4].Use)
	}
}

func TestCapacities(t *testing.T) {
	// 3850 MHz × 4.5 b/Hz = 17.325 Gbps exactly.
	if got := UTDownlinkMHzOf(ScheduleS()) * SpectralEfficiencyBpsPerHz / 1000; math.Abs(got-17.325) > 1e-9 {
		t.Errorf("exact cell capacity = %v, want 17.325", got)
	}
	// The paper rounds to 17.3; a beam carries a quarter of that.
	if got := MaxCellCapacityGbps / BeamsPerCellLimit; math.Abs(got-4.325) > 1e-9 {
		t.Errorf("beam capacity = %v, want 4.325", got)
	}
	if MaxCellCapacityGbps != 17.3 {
		t.Errorf("MaxCellCapacityGbps = %v, want 17.3", MaxCellCapacityGbps)
	}
}

func TestRegulatoryConstants(t *testing.T) {
	if FCCDownlinkMbps != 100 || FCCUplinkMbps != 20 {
		t.Errorf("FCC benchmark = %d/%d, want 100/20", FCCDownlinkMbps, FCCUplinkMbps)
	}
	if FCCFixedWirelessOversubscription != 20 {
		t.Errorf("oversubscription cap = %d, want 20", FCCFixedWirelessOversubscription)
	}
	if BeamsPerCellLimit != 4 {
		t.Errorf("beams per cell = %d, want 4", BeamsPerCellLimit)
	}
}

func TestBandUseString(t *testing.T) {
	for _, u := range []BandUse{DownlinkUT, DownlinkFlexible, DownlinkGateway, BandUse(99)} {
		if u.String() == "" {
			t.Errorf("BandUse(%d).String() empty", u)
		}
	}
}
