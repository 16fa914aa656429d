// Package linkbudget computes satellite downlink budgets: slant range
// and free-space path loss from orbital geometry, carrier-to-noise from
// EIRP and terminal G/T, and achievable spectral efficiency through a
// DVB-S2X MODCOD table.
//
// The paper adopts a flat ~4.5 b/Hz spectral-efficiency estimate for
// Starlink's Ku downlink (from Rozenvasser & Shulakova). This package
// derives that figure from the physical layer instead of asserting it:
// with public estimates of Starlink's per-beam EIRP and terminal G/T,
// the elevation-weighted DVB-S2X efficiency over the visibility cone
// lands at ≈4.5 b/Hz — and the same machinery supports ablations
// (cheaper terminals, higher shells, rain margin) that a constant
// cannot express.
package linkbudget

import (
	"fmt"
	"math"
	"sort"

	"leodivide/internal/geo"
)

// BoltzmannDBW is 10·log10(k) in dBW/K/Hz.
const BoltzmannDBW = -228.6

// SlantRangeKm returns the distance from a ground terminal to a
// satellite at the given altitude seen at the given elevation angle.
func SlantRangeKm(altitudeKm, elevationDeg float64) float64 {
	re := geo.EarthRadiusKm
	el := geo.Radians(elevationDeg)
	// Law of cosines on the Earth-center / terminal / satellite
	// triangle: r² = re² + (re+h)² − 2·re·(re+h)·cos(γ) with
	// γ = acos(re·cos(el)/(re+h)) − el; equivalently the direct form:
	rs := re + altitudeKm
	return -re*math.Sin(el) + math.Sqrt(rs*rs-re*re*math.Cos(el)*math.Cos(el))
}

// FSPLdB returns free-space path loss in dB for a range in km and a
// frequency in GHz.
func FSPLdB(rangeKm, freqGHz float64) float64 {
	if rangeKm <= 0 || freqGHz <= 0 {
		return 0
	}
	// 20·log10(4π d f / c), d in km, f in GHz, c in km/s ⇒ the usual
	// 92.45 + 20log10(d·f) form.
	return 92.45 + 20*math.Log10(rangeKm*freqGHz)
}

// Budget is a downlink link budget configuration.
type Budget struct {
	// AltitudeKm is the satellite altitude.
	AltitudeKm float64
	// FreqGHz is the downlink carrier frequency.
	FreqGHz float64
	// EIRPdBW is the satellite's per-beam EIRP.
	EIRPdBW float64
	// TerminalGTdBK is the user terminal's G/T figure of merit.
	TerminalGTdBK float64
	// BandwidthMHz is the per-beam channel bandwidth.
	BandwidthMHz float64
	// ImplementationMarginDB covers modem losses, pointing error and
	// interference allowance; subtracted from C/N before MODCOD
	// selection.
	ImplementationMarginDB float64
	// RainMarginDB is an additional weather margin.
	RainMarginDB float64
}

// StarlinkKuDownlink returns a budget built from public estimates of
// the Starlink Ku user downlink: 550 km shell, 11.7 GHz mid-band,
// ≈36 dBW beam EIRP, ≈11 dB/K terminal G/T, 240 MHz channels, 3 dB
// implementation margin. With these figures the elevation-weighted
// spectral efficiency reproduces the paper's 4.5 b/Hz estimate.
func StarlinkKuDownlink() Budget {
	return Budget{
		AltitudeKm:             550,
		FreqGHz:                11.7,
		EIRPdBW:                36,
		TerminalGTdBK:          11,
		BandwidthMHz:           240,
		ImplementationMarginDB: 3,
	}
}

// Validate reports whether the budget is computable.
func (b Budget) Validate() error {
	if b.AltitudeKm <= 0 {
		return fmt.Errorf("linkbudget: altitude %v must be positive", b.AltitudeKm)
	}
	if b.FreqGHz <= 0 {
		return fmt.Errorf("linkbudget: frequency %v must be positive", b.FreqGHz)
	}
	if b.BandwidthMHz <= 0 {
		return fmt.Errorf("linkbudget: bandwidth %v must be positive", b.BandwidthMHz)
	}
	return nil
}

// CN0dBHz returns the carrier-to-noise-density ratio at an elevation.
func (b Budget) CN0dBHz(elevationDeg float64) float64 {
	fspl := FSPLdB(SlantRangeKm(b.AltitudeKm, elevationDeg), b.FreqGHz)
	return b.EIRPdBW - fspl + b.TerminalGTdBK - BoltzmannDBW
}

// CNdB returns the carrier-to-noise ratio over the configured channel
// bandwidth, after margins.
func (b Budget) CNdB(elevationDeg float64) float64 {
	bwDBHz := 10 * math.Log10(b.BandwidthMHz*1e6)
	return b.CN0dBHz(elevationDeg) - bwDBHz - b.ImplementationMarginDB - b.RainMarginDB
}

// ModCod is one DVB-S2X modulation-and-coding point.
type ModCod struct {
	Name string
	// EsN0dB is the required carrier-to-noise for quasi-error-free
	// operation (normal frames, AWGN).
	EsN0dB float64
	// EfficiencyBpsHz is the spectral efficiency delivered.
	EfficiencyBpsHz float64
}

// DVBS2XTable returns the DVB-S2X MODCOD ladder (normal frames),
// ascending in required Es/N0.
func DVBS2XTable() []ModCod {
	return []ModCod{
		{"QPSK 1/4", -2.35, 0.49},
		{"QPSK 1/3", -1.24, 0.66},
		{"QPSK 2/5", -0.30, 0.79},
		{"QPSK 1/2", 1.00, 0.99},
		{"QPSK 3/5", 2.23, 1.19},
		{"QPSK 2/3", 3.10, 1.32},
		{"QPSK 3/4", 4.03, 1.49},
		{"QPSK 5/6", 5.18, 1.65},
		{"8PSK 3/5", 5.50, 1.78},
		{"8PSK 2/3", 6.62, 1.98},
		{"8PSK 3/4", 7.91, 2.23},
		{"16APSK 2/3", 8.97, 2.64},
		{"16APSK 3/4", 10.21, 2.97},
		{"16APSK 4/5", 11.03, 3.17},
		{"16APSK 5/6", 11.61, 3.30},
		{"32APSK 3/4", 12.73, 3.70},
		{"32APSK 4/5", 13.64, 3.95},
		{"32APSK 5/6", 14.28, 4.12},
		{"64APSK 4/5", 15.87, 4.74},
		{"64APSK 5/6", 16.55, 4.93},
		{"128APSK 3/4", 17.73, 5.16},
		{"256APSK 3/4", 19.57, 5.90},
		{"256APSK 5/6", 21.45, 6.54},
	}
}

// BestModCod returns the highest-efficiency MODCOD supported at the
// given C/N, or false when even the most robust point cannot close.
func BestModCod(cnDB float64) (ModCod, bool) {
	table := DVBS2XTable()
	// Table is sorted by threshold; take the last one that closes.
	i := sort.Search(len(table), func(i int) bool { return table[i].EsN0dB > cnDB })
	if i == 0 {
		return ModCod{}, false
	}
	return table[i-1], true
}

// EfficiencyAt returns the spectral efficiency the budget achieves at
// an elevation (0 when the link cannot close).
func (b Budget) EfficiencyAt(elevationDeg float64) float64 {
	mc, ok := BestModCod(b.CNdB(elevationDeg))
	if !ok {
		return 0
	}
	return mc.EfficiencyBpsHz
}

// MeanEfficiency returns the elevation-weighted mean spectral
// efficiency over the visibility cone [minElevationDeg, 90°]. The
// weight at each elevation is the fraction of a uniform overhead
// constellation's satellites seen at that elevation: proportional to
// the solid-angle density of the coverage annulus, which in terms of
// the Earth-central angle γ(el) is d(1−cos γ)/d el.
func (b Budget) MeanEfficiency(minElevationDeg float64) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if minElevationDeg < 0 || minElevationDeg >= 90 {
		return 0, fmt.Errorf("linkbudget: elevation mask %v out of range", minElevationDeg)
	}
	const steps = 200
	re := geo.EarthRadiusKm
	rs := re + b.AltitudeKm
	gamma := func(elDeg float64) float64 {
		el := geo.Radians(elDeg)
		return math.Acos(re*math.Cos(el)/rs) - el
	}
	num, den := 0.0, 0.0
	prev := gamma(minElevationDeg)
	for i := 1; i <= steps; i++ {
		el := minElevationDeg + (90-minElevationDeg)*float64(i)/steps
		g := gamma(el)
		// Area weight of the annulus between successive elevations.
		w := math.Cos(g) - math.Cos(prev)
		if w < 0 {
			w = -w
		}
		mid := el - (90-minElevationDeg)/(2*steps)
		num += b.EfficiencyAt(mid) * w
		den += w
		prev = g
	}
	if den == 0 {
		return 0, fmt.Errorf("linkbudget: degenerate visibility cone")
	}
	return num / den, nil
}

// Line is one row of a rendered link budget.
type Line struct {
	Item  string
	Value float64
	Unit  string
}

// Breakdown returns the classic link-budget table at an elevation.
func (b Budget) Breakdown(elevationDeg float64) []Line {
	slant := SlantRangeKm(b.AltitudeKm, elevationDeg)
	fspl := FSPLdB(slant, b.FreqGHz)
	cn0 := b.CN0dBHz(elevationDeg)
	cn := b.CNdB(elevationDeg)
	eff := b.EfficiencyAt(elevationDeg)
	return []Line{
		{"elevation", elevationDeg, "deg"},
		{"slant range", slant, "km"},
		{"frequency", b.FreqGHz, "GHz"},
		{"free-space path loss", fspl, "dB"},
		{"satellite EIRP", b.EIRPdBW, "dBW"},
		{"terminal G/T", b.TerminalGTdBK, "dB/K"},
		{"C/N0", cn0, "dBHz"},
		{"channel bandwidth", b.BandwidthMHz, "MHz"},
		{"implementation margin", b.ImplementationMarginDB, "dB"},
		{"rain margin", b.RainMarginDB, "dB"},
		{"C/N", cn, "dB"},
		{"spectral efficiency", eff, "b/Hz"},
	}
}
