package main

// The state rollup behind `leodivide states`: the national analysis
// rolled up to state granularity — per-state demand profiles, capacity
// stress, and affordability — the view a state broadband office (or a
// BEAD subgrantee evaluator) needs when deciding whether LEO service
// can stand in for terrestrial builds in its territory.

import (
	"fmt"
	"io"
	"sort"

	"leodivide"
	"leodivide/internal/afford"
	"leodivide/internal/beams"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/report"
	"leodivide/internal/usgeo"
)

// runStates prints the state report card and the most
// capacity-stressed states under the model's beams, oversubscription
// cap and affordability share.
func runStates(w io.Writer, m leodivide.Model, ds *leodivide.Dataset) error {
	cfg := defaultStateConfig()
	cfg.Beams = m.Capacity.Beams
	cfg.MaxOversub = m.MaxOversub
	cfg.Share = m.AffordShare
	profiles, err := byState(cfg, ds.Cells, ds.Incomes)
	if err != nil {
		return err
	}
	t := report.NewTable("State report card — top 15 by un(der)served locations",
		"state", "locations", "cells", "peak cell", "oversub needed", "unservable@20:1", "can't afford Starlink")
	for i, p := range profiles {
		if i >= 15 {
			break
		}
		t.AddRow(p.Abbr, p.Locations, p.Cells, p.PeakCellLocations,
			fmt.Sprintf("%.1f:1", p.RequiredOversub), p.UnservableAt20,
			fmt.Sprintf("%.1f%%", 100*p.UnaffordableFraction))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	st := report.NewTable("Most capacity-stressed states (densest cells)",
		"state", "peak cell", "oversub needed")
	for _, p := range topStressed(profiles, 5) {
		st.AddRow(p.Abbr, p.PeakCellLocations, fmt.Sprintf("%.1f:1", p.RequiredOversub))
	}
	_, err = st.WriteTo(w)
	return err
}

// stateProfile is one state's rollup.
type stateProfile struct {
	// Abbr and Name identify the state.
	Abbr, Name string
	// Locations is the state's un(der)served location count.
	Locations int
	// Cells is the state's demand-cell count.
	Cells int
	// PeakCellLocations is the densest cell.
	PeakCellLocations int
	// MedianCellLocations is the median cell density.
	MedianCellLocations int
	// RequiredOversub is the oversubscription the state's densest cell
	// forces for full service.
	RequiredOversub float64
	// UnservableAt20 counts locations beyond the 20:1 per-cell cap.
	UnservableAt20 int
	// UnaffordableFraction is the share of the state's locations unable
	// to afford Starlink Residential at 2% of income.
	UnaffordableFraction float64
}

// stateConfig parameterizes the rollup.
type stateConfig struct {
	// Beams is the satellite beam model.
	Beams beams.Config
	// MaxOversub is the acceptable oversubscription cap.
	MaxOversub float64
	// Plan and Subsidy select the affordability evaluation.
	Plan    afford.Plan
	Subsidy *afford.Subsidy
	// Share is the affordability threshold.
	Share float64
}

// defaultStateConfig returns the paper's parameters.
func defaultStateConfig() stateConfig {
	return stateConfig{
		Beams:      beams.DefaultConfig(),
		MaxOversub: 20,
		Plan:       afford.StarlinkResidential(),
		Share:      afford.DefaultAffordabilityShare,
	}
}

// byState computes per-state profiles from the national cells and
// income table, sorted by location count descending.
func byState(cfg stateConfig, cells []demand.Cell, incomes *census.Table) ([]stateProfile, error) {
	if err := cfg.Beams.Validate(); err != nil {
		return nil, err
	}
	groups := make(map[string][]demand.Cell)
	for _, c := range cells {
		s, ok := usgeo.StateAt(c.Center)
		if !ok {
			continue
		}
		groups[s.Abbr] = append(groups[s.Abbr], c)
	}
	out := make([]stateProfile, 0, len(groups))
	for abbr, stateCells := range groups {
		st, err := usgeo.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		dist, err := demand.NewDistribution(stateCells)
		if err != nil {
			continue // a state with zero-demand cells only
		}
		profile := stateProfile{
			Abbr:                abbr,
			Name:                st.Name,
			Locations:           dist.TotalLocations(),
			Cells:               dist.NumCells(),
			PeakCellLocations:   dist.Peak().Locations,
			MedianCellLocations: dist.Quantile(0.5),
			RequiredOversub:     cfg.Beams.RequiredOversubscription(dist.Peak().Locations),
			UnservableAt20:      dist.ExcessAbove(cfg.Beams.MaxServableLocations(cfg.MaxOversub)),
		}
		if incomes != nil {
			if in, err := stateAffordInput(dist, incomes); err == nil {
				res := in.Evaluate(cfg.Plan, cfg.Subsidy, cfg.Share)
				profile.UnaffordableFraction = res.UnaffordableFraction
			}
		}
		out = append(out, profile)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Locations != out[j].Locations {
			return out[i].Locations > out[j].Locations
		}
		return out[i].Abbr < out[j].Abbr
	})
	return out, nil
}

// stateAffordInput restricts the national income table to the state's
// counties, reweighted by the state's location counts.
func stateAffordInput(dist *demand.Distribution, incomes *census.Table) (*afford.Input, error) {
	weights := dist.CountyWeights()
	fips := make([]string, 0, len(weights))
	for f := range weights {
		fips = append(fips, f)
	}
	sort.Strings(fips)
	recs := make([]census.CountyIncome, 0, len(fips))
	for _, f := range fips {
		rec, ok := incomes.Lookup(f)
		if !ok {
			continue
		}
		rec.Weight = float64(weights[f])
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("states: no income records for state counties")
	}
	return afford.NewInput(census.NewTable(recs))
}

// topStressed returns the n states whose densest cells force the
// highest oversubscription — where LEO capacity bites first.
func topStressed(profiles []stateProfile, n int) []stateProfile {
	sorted := make([]stateProfile, len(profiles))
	copy(sorted, profiles)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].RequiredOversub != sorted[j].RequiredOversub {
			return sorted[i].RequiredOversub > sorted[j].RequiredOversub
		}
		return sorted[i].Abbr < sorted[j].Abbr
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
