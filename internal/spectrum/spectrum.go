// Package spectrum encodes the radio-regulatory facts the capacity model
// rests on: the Starlink spectrum allocations from SpaceX's FCC Schedule
// S filing (SAT-AMD-20210818-00105), the spectral-efficiency estimate
// the paper adopts, and the FCC benchmarks for "reliable broadband" and
// fixed-wireless oversubscription.
//
// All figures are the ones printed in the paper's Table 1 and Section 3;
// they are exported as typed constants and tables so model code never
// embeds magic numbers.
package spectrum

import "fmt"

// BandUse classifies what a band's beams may serve.
type BandUse int

// Band usages.
const (
	// DownlinkUT beams serve user terminals only.
	DownlinkUT BandUse = iota
	// DownlinkFlexible beams serve user terminals or gateways.
	DownlinkFlexible
	// DownlinkGateway beams serve gateways only.
	DownlinkGateway
)

// String names the band use.
func (u BandUse) String() string {
	switch u {
	case DownlinkUT:
		return "DL to UTs"
	case DownlinkFlexible:
		return "DL to UTs / GWs"
	case DownlinkGateway:
		return "DL to GWs"
	default:
		return fmt.Sprintf("BandUse(%d)", int(u))
	}
}

// Band is one spectrum allocation from the Schedule S filing.
type Band struct {
	// Name is the frequency range, e.g. "10.7-12.75 GHz".
	Name string
	// LowGHz and HighGHz bound the band.
	LowGHz, HighGHz float64
	// WidthMHz is the usable width in MHz.
	WidthMHz float64
	// Beams is the number of spot beams a satellite forms in the band.
	Beams int
	// Use says who the band may serve.
	Use BandUse
}

// ScheduleS returns Starlink's downlink band table as characterized in
// the FCC Schedule S filing and reproduced in the paper's Table 1.
func ScheduleS() []Band {
	return []Band{
		{Name: "10.7-12.75 GHz", LowGHz: 10.7, HighGHz: 12.75, WidthMHz: 2050, Beams: 4, Use: DownlinkUT},
		{Name: "19.7-20.2 GHz", LowGHz: 19.7, HighGHz: 20.2, WidthMHz: 500, Beams: 8, Use: DownlinkUT},
		{Name: "17.8-18.6 GHz", LowGHz: 17.8, HighGHz: 18.6, WidthMHz: 800, Beams: 8, Use: DownlinkFlexible},
		{Name: "18.8-19.3 GHz", LowGHz: 18.8, HighGHz: 19.3, WidthMHz: 500, Beams: 4, Use: DownlinkFlexible},
		{Name: "71-76 GHz", LowGHz: 71, HighGHz: 76, WidthMHz: 5000, Beams: 4, Use: DownlinkGateway},
	}
}

// UTDownlinkMHzOf sums the spectrum a band table makes available for
// downlink to user terminals (UT-only plus flexible bands): 3850 MHz
// for ScheduleS.
func UTDownlinkMHzOf(bands []Band) float64 {
	total := 0.0
	for _, b := range bands {
		if b.Use == DownlinkUT || b.Use == DownlinkFlexible {
			total += b.WidthMHz
		}
	}
	return total
}

// UTBeamsOf counts the spot beams a band table lets a satellite point
// at user-terminal cells (UT-only plus flexible bands).
func UTBeamsOf(bands []Band) int {
	n := 0
	for _, b := range bands {
		if b.Use == DownlinkUT || b.Use == DownlinkFlexible {
			n += b.Beams
		}
	}
	return n
}

// Regulatory and modelling constants.
const (
	// SpectralEfficiencyBpsPerHz is the paper's adopted estimate of
	// Starlink downlink spectral efficiency (Rozenvasser & Shulakova).
	SpectralEfficiencyBpsPerHz = 4.5

	// MaxCellCapacityGbps is the paper's rounded maximum per-cell
	// downlink capacity: 3850 MHz × 4.5 b/Hz ≈ 17.3 Gbps. The paper's
	// thresholds (865 locations per beam, 3460 per cell at 20:1) follow
	// from this rounded figure, so the model uses it instead of the
	// unrounded product (≈17.325 Gbps).
	MaxCellCapacityGbps = 17.3

	// BeamsPerCellLimit is the number of beams required (and allowed,
	// per FCC polarization constraints) to deliver the full per-cell
	// capacity to one cell.
	BeamsPerCellLimit = 4

	// FCCDownlinkMbps and FCCUplinkMbps define the FCC "reliable
	// broadband" benchmark: 100/20 Mbps.
	FCCDownlinkMbps = 100
	FCCUplinkMbps   = 20

	// FCCFixedWirelessOversubscription is the FCC's maximum allowed
	// oversubscription for terrestrial unlicensed fixed wireless
	// providers, which the paper adopts as the acceptability bar.
	FCCFixedWirelessOversubscription = 20
)
