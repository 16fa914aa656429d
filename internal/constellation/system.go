package constellation

// A System promotes a Fleet from a name+shells pair to a full
// declarative constellation spec: the shell set, the downlink band
// table, the per-cell beam convention, and the techno-economic cost
// model. The capacity model (internal/beams, internal/core) consumes a
// System instead of package-level Starlink constants, so "which
// constellation" is data, not code.
//
// Parameters follow the public filings (FCC Schedule S and
// authorization orders) and the Osoro & Oughton techno-economic cost
// framework for Starlink, OneWeb and Kuiper (arXiv:2108.10834); all
// cost figures are explicit public-estimate conventions, carried with
// every result that uses them.

import (
	"fmt"
	"slices"

	"leodivide/internal/orbit"
	"leodivide/internal/spectrum"
)

// CostModel fixes the declarative unit economics of a System: capex
// (satellite build + launch amortized over the design life, plus a
// ground-segment share), a per-subscriber terminal subsidy, and a
// monthly operating cost per satellite.
//
// Every output is linear in the cost inputs: scaling SatelliteBuildUSD,
// LaunchPerSatelliteUSD, TerminalSubsidyUSD and
// MonthlyOpexPerSatelliteUSD together by k scales every USD-valued
// method — including cost per served location — by exactly k (the
// metamorphic oracle the tests pin).
type CostModel struct {
	// SatelliteBuildUSD is the manufacturing cost per satellite.
	SatelliteBuildUSD float64
	// LaunchPerSatelliteUSD is the amortized launch cost per satellite.
	LaunchPerSatelliteUSD float64
	// DesignLifeYears is the on-orbit design life before replacement.
	DesignLifeYears float64
	// GroundSegmentShare is the fraction of space-segment capex added
	// for gateways, PoPs and ground operations (0.2 = +20%).
	GroundSegmentShare float64
	// TerminalSubsidyUSD is the per-subscriber user-terminal subsidy,
	// amortized over the design life like the space segment.
	TerminalSubsidyUSD float64
	// MonthlyOpexPerSatelliteUSD is the recurring operating cost per
	// satellite on orbit.
	MonthlyOpexPerSatelliteUSD float64
}

// Validate reports whether the cost model is computable.
func (c CostModel) Validate() error {
	if c.SatelliteBuildUSD < 0 || c.LaunchPerSatelliteUSD < 0 {
		return fmt.Errorf("constellation: negative satellite costs (build %v, launch %v)",
			c.SatelliteBuildUSD, c.LaunchPerSatelliteUSD)
	}
	if c.DesignLifeYears <= 0 {
		return fmt.Errorf("constellation: design life %v must be positive", c.DesignLifeYears)
	}
	if c.GroundSegmentShare < 0 {
		return fmt.Errorf("constellation: ground-segment share %v below 0", c.GroundSegmentShare)
	}
	if c.TerminalSubsidyUSD < 0 || c.MonthlyOpexPerSatelliteUSD < 0 {
		return fmt.Errorf("constellation: negative terminal subsidy (%v) or opex (%v)",
			c.TerminalSubsidyUSD, c.MonthlyOpexPerSatelliteUSD)
	}
	return nil
}

// AllInSatelliteUSD is the build+launch cost of one satellite, before
// the ground-segment share.
func (c CostModel) AllInSatelliteUSD() float64 {
	return c.SatelliteBuildUSD + c.LaunchPerSatelliteUSD
}

// PerSatelliteCapexUSD is the capital cost of one satellite including
// the ground-segment share.
func (c CostModel) PerSatelliteCapexUSD() float64 {
	return c.AllInSatelliteUSD() * (1 + c.GroundSegmentShare)
}

// FleetCapexUSD is the capital cost of a fleet of n satellites.
func (c CostModel) FleetCapexUSD(satellites int) float64 {
	return float64(satellites) * c.PerSatelliteCapexUSD()
}

// AnnualizedUSD is the yearly cost of sustaining n satellites: capex
// spread over the design life (LEO fleets are perpetually replaced, so
// this recurs) plus twelve months of per-satellite opex.
func (c CostModel) AnnualizedUSD(satellites int) float64 {
	return c.FleetCapexUSD(satellites)/c.DesignLifeYears +
		12*c.MonthlyOpexPerSatelliteUSD*float64(satellites)
}

// MonthlyPerServedLocationUSD is the break-even monthly cost per served
// location for a fleet of n satellites serving servedLocations: the
// annualized fleet cost split across served locations, plus the
// amortized terminal subsidy each subscriber carries individually.
// Returns 0 when nothing is served (no cost is attributable).
func (c CostModel) MonthlyPerServedLocationUSD(satellites, servedLocations int) float64 {
	if servedLocations <= 0 {
		return 0
	}
	fleet := c.AnnualizedUSD(satellites) / 12 / float64(servedLocations)
	terminal := c.TerminalSubsidyUSD / (c.DesignLifeYears * 12)
	return fleet + terminal
}

// System is the full declarative spec of one constellation.
type System struct {
	Fleet

	// Key is the canonical lowercase identifier used in scenario
	// selectors, canonical cache keys and the serving API.
	Key string

	// Bands is the system's downlink band table (the Starlink entry
	// carries the FCC Schedule S table; others carry their authorized
	// user-downlink allocations).
	Bands []spectrum.Band

	// SpectralEfficiencyBpsPerHz is the adopted downlink spectral
	// efficiency estimate.
	SpectralEfficiencyBpsPerHz float64

	// MaxBeamsPerCell is the number of co-frequency beams the system
	// may stack on one cell (polarization/frequency-reuse constraint).
	MaxBeamsPerCell int

	// CellCapacityGbps is the maximum per-cell downlink capacity under
	// the system's own convention (the Starlink entry keeps the paper's
	// rounded 17.3 Gbps so defaults stay byte-identical).
	CellCapacityGbps float64

	// SizingAltitudeKm and SizingInclinationDeg define the single
	// reference shell the sizing rule is stated in — the shell whose
	// latitude density profile converts required satellite density at
	// the binding cell into a total constellation size.
	SizingAltitudeKm     float64
	SizingInclinationDeg float64

	// Cost is the system's techno-economic cost model.
	Cost CostModel
}

// Validate reports whether the spec is coherent: valid shells, a
// non-empty band table with positive widths and beam counts, a beam
// stacking limit the band table can supply, positive capacity and
// sizing-shell parameters, and a computable cost model.
func (s System) Validate() error {
	if s.Key == "" {
		return fmt.Errorf("constellation: system %q has no key", s.Name)
	}
	if err := s.Fleet.Validate(); err != nil {
		return err
	}
	if len(s.Bands) == 0 {
		return fmt.Errorf("constellation: system %q has no bands", s.Key)
	}
	for i, b := range s.Bands {
		if b.WidthMHz <= 0 || b.Beams <= 0 {
			return fmt.Errorf("constellation: system %q band %d (%s): width %v MHz / %d beams must be positive",
				s.Key, i, b.Name, b.WidthMHz, b.Beams)
		}
	}
	if s.SpectralEfficiencyBpsPerHz <= 0 {
		return fmt.Errorf("constellation: system %q spectral efficiency %v must be positive",
			s.Key, s.SpectralEfficiencyBpsPerHz)
	}
	ut := spectrum.UTBeamsOf(s.Bands)
	if s.MaxBeamsPerCell < 1 || s.MaxBeamsPerCell > ut {
		return fmt.Errorf("constellation: system %q beam limit %d outside [1, %d user-terminal beams]",
			s.Key, s.MaxBeamsPerCell, ut)
	}
	if s.CellCapacityGbps <= 0 {
		return fmt.Errorf("constellation: system %q cell capacity %v must be positive",
			s.Key, s.CellCapacityGbps)
	}
	ref := orbit.Walker{
		AltitudeKm:     s.SizingAltitudeKm,
		InclinationDeg: s.SizingInclinationDeg,
		Total:          1,
		Planes:         1,
	}
	if err := ref.Validate(); err != nil {
		return fmt.Errorf("constellation: system %q sizing shell: %w", s.Key, err)
	}
	if err := s.Cost.Validate(); err != nil {
		return fmt.Errorf("constellation: system %q cost: %w", s.Key, err)
	}
	return nil
}

// SizingShell is the unit reference shell (one satellite) the sizing
// requirement is stated in.
func (s System) SizingShell() orbit.Walker {
	return orbit.Walker{
		AltitudeKm:     s.SizingAltitudeKm,
		InclinationDeg: s.SizingInclinationDeg,
		Total:          1,
		Planes:         1,
	}
}

// DefaultKey is the canonical key of the default system (Starlink
// Gen1), the constellation a scenario that names none analyzes.
const DefaultKey = "starlink"

// systems is the declared table, in canonical order with the default
// first. It is built once and never written: every exported accessor
// hands out a copy whose Shells and Bands are cloned (see clone), so no
// caller can reach into the table through a returned System.
var systems = [...]System{
	// Starlink Gen1: the Gen1 fleet, the Schedule S band table and the
	// paper's Ku-band capacity convention. Its parameters reproduce
	// the repo's historical Starlink constants exactly.
	{
		Fleet:                      StarlinkGen1(),
		Key:                        DefaultKey,
		Bands:                      spectrum.ScheduleS(),
		SpectralEfficiencyBpsPerHz: spectrum.SpectralEfficiencyBpsPerHz,
		MaxBeamsPerCell:            spectrum.BeamsPerCellLimit,
		CellCapacityGbps:           spectrum.MaxCellCapacityGbps,
		SizingAltitudeKm:           orbit.StarlinkAltitudeKm,
		SizingInclinationDeg:       orbit.StarlinkInclinationDeg,
		Cost: CostModel{
			SatelliteBuildUSD:          800_000,
			LaunchPerSatelliteUSD:      700_000,
			DesignLifeYears:            5,
			GroundSegmentShare:         0.2,
			TerminalSubsidyUSD:         300,
			MonthlyOpexPerSatelliteUSD: 1000,
		},
	},
	// Starlink Gen2: the nine-shell Gen2 fleet with the same Schedule
	// S spectrum convention, priced at Starship-era launch economics
	// (cheaper launch, heavier satellite).
	{
		Fleet:                      StarlinkGen2(),
		Key:                        "starlink-gen2",
		Bands:                      spectrum.ScheduleS(),
		SpectralEfficiencyBpsPerHz: spectrum.SpectralEfficiencyBpsPerHz,
		MaxBeamsPerCell:            spectrum.BeamsPerCellLimit,
		CellCapacityGbps:           spectrum.MaxCellCapacityGbps,
		SizingAltitudeKm:           orbit.StarlinkAltitudeKm,
		SizingInclinationDeg:       orbit.StarlinkInclinationDeg,
		Cost: CostModel{
			SatelliteBuildUSD:          1_000_000,
			LaunchPerSatelliteUSD:      500_000,
			DesignLifeYears:            5,
			GroundSegmentShare:         0.2,
			TerminalSubsidyUSD:         300,
			MonthlyOpexPerSatelliteUSD: 800,
		},
	},
	// Amazon's Project Kuiper as authorized by the FCC: 3,236
	// satellites across three shells, Ka-band user downlink (1,900 MHz
	// over 16 user-capable beams under this model's convention),
	// costed per public program estimates.
	{
		Fleet: Fleet{
			Name: "Kuiper",
			Shells: []orbit.Walker{
				{AltitudeKm: 630, InclinationDeg: 51.9, Total: 1156, Planes: 34, Phasing: 1},
				{AltitudeKm: 610, InclinationDeg: 42.0, Total: 1296, Planes: 36, Phasing: 1},
				{AltitudeKm: 590, InclinationDeg: 33.0, Total: 784, Planes: 28, Phasing: 1},
			},
		},
		Key: "kuiper",
		Bands: []spectrum.Band{
			{Name: "17.7-18.6 GHz", LowGHz: 17.7, HighGHz: 18.6, WidthMHz: 900, Beams: 8, Use: spectrum.DownlinkUT},
			{Name: "18.8-19.3 GHz", LowGHz: 18.8, HighGHz: 19.3, WidthMHz: 500, Beams: 4, Use: spectrum.DownlinkUT},
			{Name: "19.7-20.2 GHz", LowGHz: 19.7, HighGHz: 20.2, WidthMHz: 500, Beams: 4, Use: spectrum.DownlinkFlexible},
		},
		SpectralEfficiencyBpsPerHz: spectrum.SpectralEfficiencyBpsPerHz,
		MaxBeamsPerCell:            4,
		// 1,900 MHz × 4.5 b/Hz = 8.55 Gbps per cell.
		CellCapacityGbps:     8.55,
		SizingAltitudeKm:     630,
		SizingInclinationDeg: 51.9,
		Cost: CostModel{
			SatelliteBuildUSD:          1_200_000,
			LaunchPerSatelliteUSD:      1_300_000,
			DesignLifeYears:            7,
			GroundSegmentShare:         0.25,
			TerminalSubsidyUSD:         400,
			MonthlyOpexPerSatelliteUSD: 1200,
		},
	},
	// The OneWeb Gen1 polar system: 588 operational satellites in a
	// single 1,200 km / 87.9° shell, Ku-band user downlink split over
	// 16 fixed (non-steerable, non-stackable) beams — hence a per-cell
	// capacity of one beam's share, 2,000/16 MHz × 4.5 b/Hz =
	// 0.5625 Gbps.
	{
		Fleet: Fleet{
			Name: "OneWeb",
			Shells: []orbit.Walker{
				{AltitudeKm: 1200, InclinationDeg: 87.9, Total: 588, Planes: 12, Phasing: 1},
			},
		},
		Key: "oneweb",
		Bands: []spectrum.Band{
			{Name: "10.7-12.7 GHz", LowGHz: 10.7, HighGHz: 12.7, WidthMHz: 2000, Beams: 16, Use: spectrum.DownlinkUT},
		},
		SpectralEfficiencyBpsPerHz: spectrum.SpectralEfficiencyBpsPerHz,
		MaxBeamsPerCell:            1,
		CellCapacityGbps:           0.5625,
		SizingAltitudeKm:           1200,
		SizingInclinationDeg:       87.9,
		Cost: CostModel{
			SatelliteBuildUSD:          1_000_000,
			LaunchPerSatelliteUSD:      1_100_000,
			DesignLifeYears:            7,
			GroundSegmentShare:         0.3,
			TerminalSubsidyUSD:         500,
			MonthlyOpexPerSatelliteUSD: 1500,
		},
	},
}

// clone returns s with its Shells and Bands copied, so the caller owns
// every slice it can reach.
func (s System) clone() System {
	s.Shells = slices.Clone(s.Shells)
	s.Bands = slices.Clone(s.Bands)
	return s
}

// lookup finds a declared system by key without copying it.
func lookup(name string) (*System, bool) {
	for i := range systems {
		if systems[i].Key == name {
			return &systems[i], true
		}
	}
	return nil, false
}

// StarlinkSystem returns the default system: the Gen1 fleet, the
// Schedule S band table, and the paper's Ku-band capacity convention.
// Every default model path routes through it.
func StarlinkSystem() System { return systems[0].clone() }

// StarlinkGen2System returns the Gen2 variant: the nine-shell Gen2
// fleet with the same Schedule S spectrum convention, priced at
// Starship-era launch economics.
func StarlinkGen2System() System { return systems[1].clone() }

// KuiperSystem returns Amazon's Project Kuiper as authorized by the
// FCC.
func KuiperSystem() System { return systems[2].clone() }

// OneWebSystem returns the OneWeb Gen1 polar system.
func OneWebSystem() System { return systems[3].clone() }

// Systems returns a copy of every declared system in canonical order.
// The first entry is the default (Starlink Gen1).
func Systems() []System {
	out := make([]System, len(systems))
	for i := range systems {
		out[i] = systems[i].clone()
	}
	return out
}

// SystemNames returns the canonical keys of the declared systems, in
// canonical order.
func SystemNames() []string {
	names := make([]string, len(systems))
	for i := range systems {
		names[i] = systems[i].Key
	}
	return names
}

// SystemByName resolves a canonical key to a copy of its system.
func SystemByName(name string) (System, bool) {
	if s, ok := lookup(name); ok {
		return s.clone(), true
	}
	return System{}, false
}

// CostByName resolves a canonical key to its system's declared cost
// model without copying the rest of the spec: the lookup scenario
// normalization and validation need.
func CostByName(name string) (CostModel, bool) {
	if s, ok := lookup(name); ok {
		return s.Cost, true
	}
	return CostModel{}, false
}
