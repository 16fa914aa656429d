// Package econ attaches dollar figures to the paper's satellite-count
// results: constellation capital and replacement cost, per-location
// cost of the diminishing-returns tail (F3's "significantly more
// expensive", quantified), and the break-even monthly price against
// which the affordability analysis can be read.
//
// All cost assumptions are explicit, documented fields with defaults
// drawn from public estimates of Starlink V2-mini economics; every
// output carries those assumptions with it.
package econ

import (
	"fmt"

	"leodivide/internal/constellation"
	"leodivide/internal/core"
)

// CostModel fixes the unit economics of a constellation.
type CostModel struct {
	// SatelliteUnitUSD is the manufacturing cost per satellite.
	SatelliteUnitUSD float64
	// LaunchPerSatelliteUSD is the amortized launch cost per satellite.
	LaunchPerSatelliteUSD float64
	// SatelliteLifetimeYears is the on-orbit lifetime before
	// replacement (LEO drag limits this to ~5 years).
	SatelliteLifetimeYears float64
	// GroundSegmentOverhead multiplies space-segment cost to cover
	// gateways, PoPs and operations (1.0 = none).
	GroundSegmentOverhead float64
}

// FromSystemCost views a constellation cost spec through econ's
// capex-only lens: build, launch, life and the ground-segment share as
// a multiplier. Terminal subsidy and per-satellite opex have no econ
// counterpart and are intentionally dropped — econ prices the space
// segment the paper's Figure 3 tail argument needs — so a scenario's
// cost_terminal_usd override does not enter econ's result. For the
// Starlink spec's 0.2 share, 1 + 0.2 rounds to the same float64 as
// 1.2, so the default econ result keeps its historical multiplier.
func FromSystemCost(c constellation.CostModel) CostModel {
	return CostModel{
		SatelliteUnitUSD:       c.SatelliteBuildUSD,
		LaunchPerSatelliteUSD:  c.LaunchPerSatelliteUSD,
		SatelliteLifetimeYears: c.DesignLifeYears,
		GroundSegmentOverhead:  1 + c.GroundSegmentShare,
	}
}

// Validate reports whether the model is computable.
func (m CostModel) Validate() error {
	if m.SatelliteUnitUSD < 0 || m.LaunchPerSatelliteUSD < 0 {
		return fmt.Errorf("econ: negative unit costs")
	}
	if m.SatelliteLifetimeYears <= 0 {
		return fmt.Errorf("econ: lifetime must be positive, got %v", m.SatelliteLifetimeYears)
	}
	if m.GroundSegmentOverhead < 1 {
		return fmt.Errorf("econ: ground overhead %v below 1", m.GroundSegmentOverhead)
	}
	return nil
}

// PerSatelliteUSD returns the capital cost of one satellite including
// its share of the ground segment: build plus launch, times
// GroundSegmentOverhead. It is not the all-in build+launch figure a
// constellation.CostModel or a cost_sat_usd override names, which
// leaves the ground segment out.
func (m CostModel) PerSatelliteUSD() float64 {
	return (m.SatelliteUnitUSD + m.LaunchPerSatelliteUSD) * m.GroundSegmentOverhead
}

// CapexUSD returns the capital cost of a constellation of n satellites.
func (m CostModel) CapexUSD(satellites int) float64 {
	return float64(satellites) * m.PerSatelliteUSD()
}

// AnnualizedUSD returns the yearly cost of sustaining n satellites
// (capital spread over the lifetime — LEO constellations are
// perpetually replaced, so this is a recurring cost, not a one-off).
func (m CostModel) AnnualizedUSD(satellites int) float64 {
	return m.CapexUSD(satellites) / m.SatelliteLifetimeYears
}

// MonthlyPerLocationUSD returns the sustaining cost per served location
// per month when the constellation serves the given location count.
// This is the floor a price must clear if the service were to carry
// the whole constellation cost (the paper's best-case framing: the
// constellation exists only for these locations).
func (m CostModel) MonthlyPerLocationUSD(satellites, locations int) float64 {
	if locations <= 0 {
		return 0
	}
	return m.AnnualizedUSD(satellites) / 12 / float64(locations)
}

// TailCost prices one step of the diminishing-returns curve.
type TailCost struct {
	core.StepCost
	// CapexUSD is the capital cost of the additional satellites.
	CapexUSD float64
	// CapexPerLocationUSD is that capital divided by the locations the
	// step serves.
	CapexPerLocationUSD float64
	// MonthlyPerLocationUSD is the sustaining cost per newly served
	// location per month.
	MonthlyPerLocationUSD float64
}

// PriceSteps converts diminishing-returns steps into dollar terms.
func (m CostModel) PriceSteps(steps []core.StepCost) ([]TailCost, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]TailCost, 0, len(steps))
	for _, s := range steps {
		if s.LocationsGained <= 0 {
			continue
		}
		capex := m.CapexUSD(s.AdditionalSatellites)
		out = append(out, TailCost{
			StepCost:              s,
			CapexUSD:              capex,
			CapexPerLocationUSD:   capex / float64(s.LocationsGained),
			MonthlyPerLocationUSD: capex / m.SatelliteLifetimeYears / 12 / float64(s.LocationsGained),
		})
	}
	return out, nil
}

// ScenarioCost summarizes a sizing result in dollars.
type ScenarioCost struct {
	Satellites            int
	CapexUSD              float64
	AnnualizedUSD         float64
	ServedLocations       int
	MonthlyPerLocationUSD float64
}

// PriceScenario prices a constellation serving the given locations.
func (m CostModel) PriceScenario(satellites, servedLocations int) (ScenarioCost, error) {
	if err := m.Validate(); err != nil {
		return ScenarioCost{}, err
	}
	return ScenarioCost{
		Satellites:            satellites,
		CapexUSD:              m.CapexUSD(satellites),
		AnnualizedUSD:         m.AnnualizedUSD(satellites),
		ServedLocations:       servedLocations,
		MonthlyPerLocationUSD: m.MonthlyPerLocationUSD(satellites, servedLocations),
	}, nil
}
