package leodivide

// Cross-constellation techno-economics: the paper's headline question —
// LEO can serve anyone, anywhere, but not everyone, everywhere — asked
// of every declared constellation.System instead of Starlink alone.
// Two registry experiments surface it:
//
//   - costcurve: served fraction and monthly cost per served location
//     as each system's fleet grows from 10% to 100% of its authorized
//     size, plus the priced diminishing-returns tail.
//   - xconst: the "which system closes the divide cheapest under the
//     FCC 100/20 benchmark" table.
//
// Both reuse core's compute stages: the binding-cell scan and the
// diminishing-returns profile are memoized per (beam config,
// inclination, ...) key, so each system warms its own stage entries and
// repeat queries through the serving layer hit the cache.

import (
	"context"
	"math"

	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/par"
)

// costCurveFractions are the fleet-size fractions each system's cost
// curve samples, as explicit literals (no accumulated arithmetic, so
// the grid is bit-stable).
var costCurveFractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// CostCurvePoint is one fleet-size sample of a system's cost curve.
type CostCurvePoint struct {
	// FleetFraction is the sampled share of the authorized fleet.
	FleetFraction float64
	// Satellites is the raw fleet size at this fraction.
	Satellites int
	// EquivalentSatellites is that fleet expressed in the system's
	// single-reference-shell sizing unit at the binding latitude.
	EquivalentSatellites int
	// RequiredSpread is the beamspread the fleet needs to cover all
	// cells (clamped to 1 when it has density to spare).
	RequiredSpread float64
	// ServedLocations and ServedFraction count the locations within
	// the single-beam service cap that spread implies.
	ServedLocations int
	ServedFraction  float64
	// MonthlyPerLocationUSD is the break-even monthly cost per served
	// location (fleet amortization + opex + terminal subsidy).
	MonthlyPerLocationUSD float64
}

// CostTail prices a system's diminishing-returns tail at spread 1:
// what the satellites needed to push per-cell service from the
// single-beam cap to the full stacking cap buy, per location gained.
// The zero value means the system has no tail (its stacking limit is a
// single beam, so the two caps coincide).
type CostTail struct {
	// LocationsGained is the unserved-location reduction over the tail.
	LocationsGained int
	// AdditionalSatellites is the raw fleet growth the tail requires.
	AdditionalSatellites int
	// MonthlyPerLocationUSD is the sustaining cost per location gained.
	MonthlyPerLocationUSD float64
}

// SystemCostCurve is one system's cost curve.
type SystemCostCurve struct {
	// System is the canonical key; DisplayName the fleet name.
	System      string
	DisplayName string
	// AuthorizedSatellites is the full fleet size per the filing.
	AuthorizedSatellites int
	// EquivalentFullFleet is the full fleet in sizing-shell units at
	// the binding latitude.
	EquivalentFullFleet int
	// BindingLatDeg is the latitude of the binding demand cell under
	// this system's beam configuration.
	BindingLatDeg float64
	// Points sample the fleet-size sweep, ascending by FleetFraction.
	Points []CostCurvePoint
	// Tail prices the diminishing-returns tail.
	Tail CostTail
}

// CostCurveResult is the costcurve experiment output.
type CostCurveResult struct {
	MaxOversub float64
	// Systems holds one curve per declared system, in canonical order.
	Systems []SystemCostCurve
}

// CostCurve sweeps fleet size per declared constellation and reports
// served fraction and cost per served location at each point — the
// cross-constellation generalization of the fleets + econ experiments.
func (m Model) CostCurve(ctx context.Context, d *Dataset) (CostCurveResult, error) {
	dist := d.Distribution()
	systems := constellation.Systems()
	curves, err := par.Map(ctx, m.Capacity.Parallelism, len(systems), func(i int) (SystemCostCurve, error) {
		return m.systemCostCurve(ctx, dist, systems[i])
	})
	if err != nil {
		return CostCurveResult{}, err
	}
	return CostCurveResult{MaxOversub: m.MaxOversub, Systems: curves}, nil
}

// systemModel resolves the capacity model a sweep uses for one system:
// the active system (matching m.System) keeps the model's own capacity
// configuration — including any scenario cost overrides carried on
// m.System — while the others get their spec defaults with the run's
// parallelism and calibration knobs copied, so the comparison is
// like-for-like.
func (m Model) systemModel(sys constellation.System) (constellation.System, core.Model) {
	if sys.Key == m.System.Key {
		return m.System, m.Capacity
	}
	c := core.NewModelFor(sys)
	c.Parallelism = m.Capacity.Parallelism
	c.CalibratedEffectiveCells = m.Capacity.CalibratedEffectiveCells
	return sys, c
}

func (m Model) systemCostCurve(ctx context.Context, dist *demand.Distribution, declared constellation.System) (SystemCostCurve, error) {
	sys, c := m.systemModel(declared)
	capped := c.Size(dist, core.CappedOversub, 1, m.MaxOversub)
	lat := capped.BindingCell.Center.Lat
	equivFull := sys.EquivalentSingleShellSatellites(sys.SizingShell(), lat)
	if equivFull < 1 {
		equivFull = 1
	}
	total := sys.TotalSatellites()
	totalLocs := dist.TotalLocations()

	points := make([]CostCurvePoint, 0, len(costCurveFractions))
	for _, f := range costCurveFractions {
		raw := max(1, int(math.Round(f*float64(total))))
		equiv := max(1, int(math.Round(f*float64(equivFull))))
		inv := c.InverseSize(dist, equiv, m.MaxOversub)
		served := totalLocs - dist.ExcessAbove(inv.MaxServableLocations)
		points = append(points, CostCurvePoint{
			FleetFraction:         f,
			Satellites:            raw,
			EquivalentSatellites:  equiv,
			RequiredSpread:        inv.RequiredSpread,
			ServedLocations:       served,
			ServedFraction:        float64(served) / float64(totalLocs),
			MonthlyPerLocationUSD: sys.Cost.MonthlyPerServedLocationUSD(raw, served),
		})
	}

	tail, err := m.systemCostTail(ctx, dist, sys, c, equivFull, total)
	if err != nil {
		return SystemCostCurve{}, err
	}
	return SystemCostCurve{
		System:               sys.Key,
		DisplayName:          sys.Name,
		AuthorizedSatellites: total,
		EquivalentFullFleet:  equivFull,
		BindingLatDeg:        lat,
		Points:               points,
		Tail:                 tail,
	}, nil
}

// systemCostTail prices the ends of the diminishing-returns curve: the
// satellites (converted from sizing-shell to raw fleet units) that
// move per-cell service from the single-beam cap to the full stacking
// cap, per location gained. Only the curve's two ends are read, so the
// curve itself is never built.
func (m Model) systemCostTail(ctx context.Context, dist *demand.Distribution,
	sys constellation.System, c core.Model, equivFull, total int) (CostTail, error) {
	first, last, ok, err := c.ReturnsEnds(ctx, dist, 1, m.MaxOversub)
	if err != nil || !ok {
		return CostTail{}, err
	}
	gained := first.UnservedLocations - last.UnservedLocations
	addlEquiv := last.Satellites - first.Satellites
	if gained <= 0 || addlEquiv <= 0 {
		return CostTail{}, nil
	}
	addlRaw := int(math.Ceil(float64(addlEquiv) * float64(total) / float64(equivFull)))
	return CostTail{
		LocationsGained:       gained,
		AdditionalSatellites:  addlRaw,
		MonthlyPerLocationUSD: sys.Cost.AnnualizedUSD(addlRaw) / 12 / float64(gained),
	}, nil
}

// ConstellationRow is one system's line of the xconst table.
type ConstellationRow struct {
	// System is the canonical key; DisplayName the fleet name.
	System      string
	DisplayName string
	// AuthorizedSatellites is the filed fleet size;
	// EquivalentSatellites expresses it in sizing-shell units at the
	// binding latitude.
	AuthorizedSatellites int
	EquivalentSatellites int
	// RequiredSpread is the beamspread the authorized fleet needs to
	// cover all cells.
	RequiredSpread float64
	// RequiredSatellites is the raw fleet that meets the capped sizing
	// rule at spread 1 (scaling the authorized composition).
	RequiredSatellites int
	// ServedLocations and ServedFraction count the locations within
	// the system's hard per-cell cap at the oversubscription limit —
	// the most the 100/20 benchmark lets it serve however large the
	// fleet grows.
	ServedLocations int
	ServedFraction  float64
	// FleetCapexUSD is the capital cost of the required fleet.
	FleetCapexUSD float64
	// MonthlyPerLocationUSD is the required fleet's break-even monthly
	// cost per served location.
	MonthlyPerLocationUSD float64
}

// CrossConstellationResult is the xconst experiment output: which
// system closes the divide cheapest under the 100/20 benchmark.
type CrossConstellationResult struct {
	MaxOversub float64
	// Rows hold one line per declared system, in canonical order.
	Rows []ConstellationRow
	// Cheapest is the canonical key of the serving system with the
	// lowest monthly cost per served location (first wins on ties).
	Cheapest string
}

// CrossConstellation builds the xconst table: per system, the fleet
// the capped sizing rule demands, the service fraction its per-cell
// cap admits, and the break-even monthly cost per served location.
func (m Model) CrossConstellation(ctx context.Context, d *Dataset) (CrossConstellationResult, error) {
	dist := d.Distribution()
	systems := constellation.Systems()
	rows, err := par.Map(ctx, m.Capacity.Parallelism, len(systems), func(i int) (ConstellationRow, error) {
		return m.constellationRow(dist, systems[i]), nil
	})
	if err != nil {
		return CrossConstellationResult{}, err
	}
	out := CrossConstellationResult{MaxOversub: m.MaxOversub, Rows: rows}
	best := math.Inf(1)
	for _, r := range rows {
		if r.ServedLocations > 0 && r.MonthlyPerLocationUSD < best {
			best = r.MonthlyPerLocationUSD
			out.Cheapest = r.System
		}
	}
	return out, nil
}

func (m Model) constellationRow(dist *demand.Distribution, declared constellation.System) ConstellationRow {
	sys, c := m.systemModel(declared)
	sizing := c.Size(dist, core.CappedOversub, 1, m.MaxOversub)
	lat := sizing.BindingCell.Center.Lat
	equivFull := sys.EquivalentSingleShellSatellites(sys.SizingShell(), lat)
	if equivFull < 1 {
		equivFull = 1
	}
	total := sys.TotalSatellites()
	inv := c.InverseSize(dist, equivFull, m.MaxOversub)

	// The hard cap: the largest cell servable at the oversubscription
	// limit with the system's full per-cell stacking.
	hardCap := c.Beams.MaxServableLocations(m.MaxOversub)
	totalLocs := dist.TotalLocations()
	served := totalLocs - dist.ExcessAbove(hardCap)

	// Convert the sizing requirement (sizing-shell units) into a raw
	// fleet by scaling the authorized composition.
	required := int(math.Ceil(float64(sizing.Satellites) * float64(total) / float64(equivFull)))
	return ConstellationRow{
		System:                sys.Key,
		DisplayName:           sys.Name,
		AuthorizedSatellites:  total,
		EquivalentSatellites:  equivFull,
		RequiredSpread:        inv.RequiredSpread,
		RequiredSatellites:    required,
		ServedLocations:       served,
		ServedFraction:        float64(served) / float64(totalLocs),
		FleetCapexUSD:         sys.Cost.FleetCapexUSD(required),
		MonthlyPerLocationUSD: sys.Cost.MonthlyPerServedLocationUSD(required, served),
	}
}
