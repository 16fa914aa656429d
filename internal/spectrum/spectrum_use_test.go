package spectrum

// Table-driven cross-checks of the Schedule S band table: per-use
// subtotals, name/range consistency, and the arithmetic relations
// between the aggregate helpers. These pin the decomposition behind the
// paper's 3850 MHz / 24-beam user-terminal budget, not just the totals.

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// perUse sums width and beams for one band use.
func perUse(use BandUse) (widthMHz float64, beams int) {
	for _, b := range ScheduleS() {
		if b.Use == use {
			widthMHz += b.WidthMHz
			beams += b.Beams
		}
	}
	return widthMHz, beams
}

func TestScheduleSPerUseSubtotals(t *testing.T) {
	cases := []struct {
		use       BandUse
		wantMHz   float64
		wantBeams int
	}{
		// 10.7-12.75 (2050 MHz, 4 beams) + 19.7-20.2 (500 MHz, 8 beams).
		{DownlinkUT, 2550, 12},
		// 17.8-18.6 (800 MHz, 8 beams) + 18.8-19.3 (500 MHz, 4 beams).
		{DownlinkFlexible, 1300, 12},
		// 71-76 GHz E-band.
		{DownlinkGateway, 5000, 4},
	}
	var totalMHz float64
	var totalBeams int
	for _, tc := range cases {
		gotMHz, gotBeams := perUse(tc.use)
		if gotMHz != tc.wantMHz {
			t.Errorf("%v width = %v MHz, want %v", tc.use, gotMHz, tc.wantMHz)
		}
		if gotBeams != tc.wantBeams {
			t.Errorf("%v beams = %d, want %d", tc.use, gotBeams, tc.wantBeams)
		}
		totalMHz += gotMHz
		totalBeams += gotBeams
	}
	// The three uses partition the table: subtotals tie out against the
	// whole table exactly (8850 MHz, 28 beams).
	var allMHz float64
	var allBeams int
	for _, b := range ScheduleS() {
		allMHz += b.WidthMHz
		allBeams += b.Beams
	}
	if totalMHz != allMHz || allMHz != 8850 {
		t.Errorf("per-use widths sum to %v, the table to %v, want 8850", totalMHz, allMHz)
	}
	if totalBeams != allBeams || allBeams != 28 {
		t.Errorf("per-use beams sum to %d, the table to %d, want 28", totalBeams, allBeams)
	}
	utMHz, utBeams := perUse(DownlinkUT)
	flexMHz, flexBeams := perUse(DownlinkFlexible)
	if utMHz+flexMHz != UTDownlinkMHzOf(ScheduleS()) {
		t.Errorf("UT+flexible width %v != Schedule S UT downlink %v", utMHz+flexMHz, UTDownlinkMHzOf(ScheduleS()))
	}
	if utBeams+flexBeams != UTBeamsOf(ScheduleS()) {
		t.Errorf("UT+flexible beams %d != UTBeamsOf %d", utBeams+flexBeams, UTBeamsOf(ScheduleS()))
	}
}

func TestScheduleSBandNamesMatchRanges(t *testing.T) {
	// Band names embed their frequency range; keep them honest so the
	// table stays self-describing when someone edits an allocation.
	for _, b := range ScheduleS() {
		if !strings.Contains(b.Name, "GHz") {
			t.Errorf("band %q name does not state units", b.Name)
		}
		lead := strings.SplitN(strings.TrimSuffix(b.Name, " GHz"), "-", 2)
		if len(lead) != 2 {
			t.Errorf("band %q name is not a range", b.Name)
			continue
		}
		if want := formatGHz(b.LowGHz); lead[0] != want {
			t.Errorf("band %q low bound in name %q != %q", b.Name, lead[0], want)
		}
		if want := formatGHz(b.HighGHz); lead[1] != want {
			t.Errorf("band %q high bound in name %q != %q", b.Name, lead[1], want)
		}
	}
}

func formatGHz(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func TestBandsAreDisjointAndOrdered(t *testing.T) {
	// Spectrum allocations cannot overlap; the Ku/Ka bands in the table
	// are listed UT-first, but sorted by frequency they must be
	// pairwise disjoint.
	bands := ScheduleS()
	sorted := make([]Band, len(bands))
	copy(sorted, bands)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].LowGHz < sorted[i].LowGHz {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i := 0; i+1 < len(sorted); i++ {
		if sorted[i+1].LowGHz < sorted[i].HighGHz {
			t.Errorf("bands %q and %q overlap", sorted[i].Name, sorted[i+1].Name)
		}
	}
}

func TestCapacityChainConsistency(t *testing.T) {
	// The paper's capacity chain: rounded per-cell capacity within 0.2%
	// of the exact product, beam capacity exactly a quarter of it, and
	// the derived per-beam/per-cell location limits at 20:1.
	exact := UTDownlinkMHzOf(ScheduleS()) * SpectralEfficiencyBpsPerHz / 1000
	beam := MaxCellCapacityGbps / BeamsPerCellLimit
	if rel := math.Abs(MaxCellCapacityGbps-exact) / exact; rel > 0.002 {
		t.Errorf("rounded capacity %v is %.4f%% off the exact %v", MaxCellCapacityGbps, 100*rel, exact)
	}
	if got := beam * BeamsPerCellLimit; got != MaxCellCapacityGbps {
		t.Errorf("beam capacity × %d = %v, want %v", BeamsPerCellLimit, got, MaxCellCapacityGbps)
	}
	// 4.325 Gbps × 20 / 0.1 Gbps = 865 locations per beam, 3460 per
	// cell — the thresholds behind Finding 1.
	perBeam := beam * FCCFixedWirelessOversubscription / (FCCDownlinkMbps / 1000.0)
	if math.Abs(perBeam-865) > 1e-9 {
		t.Errorf("locations per beam at 20:1 = %v, want 865", perBeam)
	}
	if math.Abs(perBeam*BeamsPerCellLimit-3460) > 1e-9 {
		t.Errorf("per-cell limit at 20:1 = %v, want 3460", perBeam*BeamsPerCellLimit)
	}
}
