package leodivide

// ScenarioConfig: the versioned, validated "what-if" option set behind
// `leodivide serve`. It extends RunConfig (dataset identity) with the
// model knobs that used to live only as writable Model fields —
// oversubscription cap, affordability share, Fig3 beamspread selection,
// Fig4 plan/subsidy selection — plus the experiment name, so library,
// CLI, bench and server all describe a scenario with one type and none
// can drift. CanonicalKey is the single byte encoding of a scenario:
// the result-cache key, the golden identity, and the serve wire
// contract all derive from it.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"leodivide/internal/afford"
	"leodivide/internal/constellation"
	"leodivide/internal/region"
	"leodivide/internal/scenario"
	"leodivide/internal/spectrum"
)

// ScenarioSchema is the versioned identifier of the scenario encoding
// and the `leodivide serve` HTTP contract. It is the only schema
// accepted: a key or request under any other schema is an error.
const ScenarioSchema = scenario.Schema

// ScenarioConfig describes one scenario query: which experiment to run,
// on which dataset (the embedded RunConfig), under which model knobs.
// The zero value of every knob means "the paper's default"; obtain a
// fully-populated copy from Normalized.
//
// Construct a scenario as a struct literal (or DefaultScenarioConfig,
// or ScenarioRequest.Apply for wire input) and call Validate before
// use: a typo'd constellation name or out-of-range knob fails there
// instead of surfacing later from CanonicalKey or BuildModel.
type ScenarioConfig struct {
	RunConfig

	// Experiment names the registry experiment to run ("table2", ...).
	Experiment string
	// MaxOversub is the acceptable oversubscription cap (0 = the FCC
	// fixed-wireless 20:1 default).
	MaxOversub float64
	// AffordShare is the affordability threshold as a share of monthly
	// income (0 = the paper's 2%).
	AffordShare float64
	// Spreads overrides the beamspread factors Fig3 evaluates (nil =
	// the paper's Table 2 spreads). Must be strictly ascending, at most
	// 32 of them.
	Spreads []float64
	// Plans restricts the Fig4 comparison to the named plan labels
	// (nil = the paper's full four-option comparison). Labels follow
	// the catalog naming: "Starlink Residential", "Starlink Residential
	// w/ Lifeline", "Xfinity 300", "Spectrum Internet Premier". Each
	// label must be one of these, once.
	Plans []string
	// Constellation selects the declared constellation.System the model
	// analyzes, by canonical key ("" = "starlink"). See
	// constellation.SystemNames for the valid set.
	Constellation string
	// Region selects the demand/income geography the dataset is
	// generated from, by canonical key ("" = "us", the calibrated
	// national pipeline). See region.Names for the valid set.
	Region string
	// CostSatelliteUSD overrides the selected system's all-in
	// (build+launch) satellite cost (0 = the system default).
	CostSatelliteUSD float64
	// CostLifeYears overrides the system's satellite design life in
	// years (0 = the system default).
	CostLifeYears float64
	// CostTerminalUSD overrides the system's per-subscriber terminal
	// subsidy (0 = the system default).
	CostTerminalUSD float64
}

// DefaultScenarioConfig returns the paper's configuration with the
// named experiment selected.
func DefaultScenarioConfig(experiment string) ScenarioConfig {
	return ScenarioConfig{RunConfig: DefaultRunConfig(), Experiment: experiment}
}

// Normalized returns a copy with every defaulted knob materialized:
// zero MaxOversub/AffordShare become the paper's values, empty Spreads
// become a new PaperTable2Spreads slice, Plans are sorted into
// canonical order, an empty Constellation becomes "starlink", and zero
// cost overrides become the selected system's declared defaults. Two
// configs describing the same scenario normalize to equal values,
// which is what makes CanonicalKey a cache identity.
func (c ScenarioConfig) Normalized() ScenarioConfig {
	n := c.normalized()
	if len(c.Spreads) == 0 {
		n.Spreads = PaperTable2Spreads()
	}
	return n
}

// normalized is Normalized with empty Spreads pointing at the paper's
// table itself instead of a copy of it. Validation and the canonical
// key only read the value, so they normalize this way and copy nothing
// for a default request; the result must not escape to a caller.
func (c ScenarioConfig) normalized() ScenarioConfig {
	if c.MaxOversub == 0 {
		c.MaxOversub = spectrum.FCCFixedWirelessOversubscription
	}
	if c.AffordShare == 0 {
		c.AffordShare = afford.DefaultAffordabilityShare
	}
	if len(c.Spreads) == 0 {
		c.Spreads = paperTable2Spreads[:]
	}
	if len(c.Plans) == 0 {
		c.Plans = nil
	} else {
		plans := make([]string, len(c.Plans))
		copy(plans, c.Plans)
		sort.Strings(plans)
		c.Plans = plans
	}
	if c.Constellation == "" {
		c.Constellation = constellation.DefaultKey
	}
	if c.Region == "" {
		c.Region = region.DefaultKey
	}
	// Cost defaults come from the selected system; an unknown name is
	// left untouched for Validate to report.
	if cost, ok := constellation.CostByName(c.Constellation); ok {
		if c.CostSatelliteUSD == 0 {
			c.CostSatelliteUSD = cost.AllInSatelliteUSD()
		}
		if c.CostLifeYears == 0 {
			c.CostLifeYears = cost.DesignLifeYears
		}
		if c.CostTerminalUSD == 0 {
			c.CostTerminalUSD = cost.TerminalSubsidyUSD
		}
	}
	return c
}

// maxSpreads bounds ScenarioConfig.Spreads. Figure 3 returns one curve
// per spread, about 0.1 MB of JSON each, so the bound keeps what one
// request may cost to a few MB while leaving room well beyond the
// paper's five spreads (PaperTable2Spreads).
const maxSpreads = 32

// Validate reports whether the scenario is runnable: a valid RunConfig,
// a known experiment name, and every knob finite and in range.
func (c ScenarioConfig) Validate() error {
	_, err := c.validated()
	return err
}

// validated is Validate returning the value it checked: the scenario
// normalized once (normalized, so read-only), which CanonicalKey then
// encodes.
func (c ScenarioConfig) validated() (ScenarioConfig, error) {
	if err := c.RunConfig.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	if c.Experiment == "" {
		return ScenarioConfig{}, fmt.Errorf("leodivide: scenario names no experiment")
	}
	if _, ok := lookupEntry(c.Experiment); !ok {
		return ScenarioConfig{}, fmt.Errorf("leodivide: unknown experiment %q (see `leodivide experiments`)", c.Experiment)
	}
	n := c.normalized()
	if err := n.validateKnobs(); err != nil {
		return ScenarioConfig{}, err
	}
	return n, nil
}

// validateBase validates everything except the experiment selection:
// the RunConfig and every promoted knob. It is what a scenario used as
// a serving or bench base (experiment chosen per request) must satisfy.
func (c ScenarioConfig) validateBase() error {
	if err := c.RunConfig.Validate(); err != nil {
		return err
	}
	return c.normalized().validateKnobs()
}

// validateKnobs checks every promoted knob of an already normalized
// scenario.
func (c ScenarioConfig) validateKnobs() error {
	if math.IsNaN(c.MaxOversub) || math.IsInf(c.MaxOversub, 0) || c.MaxOversub < 1 || c.MaxOversub > 1000 {
		return fmt.Errorf("leodivide: max oversubscription must be in [1,1000], got %v", c.MaxOversub)
	}
	if math.IsNaN(c.AffordShare) || c.AffordShare <= 0 || c.AffordShare > 1 {
		return fmt.Errorf("leodivide: affordability share must be in (0,1], got %v", c.AffordShare)
	}
	if len(c.Spreads) > maxSpreads {
		return fmt.Errorf("leodivide: at most %d beamspreads, got %d", maxSpreads, len(c.Spreads))
	}
	for i, s := range c.Spreads {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 1 || s > 1000 {
			return fmt.Errorf("leodivide: beamspread %v at index %d must be in [1,1000]", s, i)
		}
		if i > 0 && s <= c.Spreads[i-1] {
			return fmt.Errorf("leodivide: beamspreads must be strictly ascending, got %v after %v", s, c.Spreads[i-1])
		}
	}
	seen := make(map[string]bool, len(c.Plans))
	for _, p := range c.Plans {
		if p == "" || p != strings.TrimSpace(p) {
			return fmt.Errorf("leodivide: invalid plan label %q", p)
		}
		if seen[p] {
			return fmt.Errorf("leodivide: duplicate plan label %q", p)
		}
		seen[p] = true
	}
	// Unique labels from the catalog also bound the list's length.
	if len(c.Plans) > 0 {
		if _, err := resolvePlans(c.Plans); err != nil {
			return err
		}
	}
	if _, ok := constellation.CostByName(c.Constellation); !ok {
		return fmt.Errorf("leodivide: unknown constellation %q (valid: %s)",
			c.Constellation, strings.Join(constellation.SystemNames(), ", "))
	}
	if _, ok := region.ByName(c.Region); !ok {
		return fmt.Errorf("leodivide: unknown region %q (valid: %s)",
			c.Region, strings.Join(region.Names(), ", "))
	}
	if math.IsNaN(c.CostSatelliteUSD) || math.IsInf(c.CostSatelliteUSD, 0) || c.CostSatelliteUSD < 0 {
		return fmt.Errorf("leodivide: satellite cost override must be finite and non-negative, got %v", c.CostSatelliteUSD)
	}
	if math.IsNaN(c.CostLifeYears) || math.IsInf(c.CostLifeYears, 0) || c.CostLifeYears <= 0 || c.CostLifeYears > 100 {
		return fmt.Errorf("leodivide: design-life override must be in (0,100] years, got %v", c.CostLifeYears)
	}
	if math.IsNaN(c.CostTerminalUSD) || math.IsInf(c.CostTerminalUSD, 0) || c.CostTerminalUSD < 0 {
		return fmt.Errorf("leodivide: terminal cost override must be finite and non-negative, got %v", c.CostTerminalUSD)
	}
	return nil
}

// CanonicalKey returns the scenario's canonical byte encoding: the
// versioned, validated, normalized field sequence that serves as the
// one cache and wire identity of the scenario. Parallelism is
// deliberately excluded — experiment output is byte-identical at every
// worker count (the determinism contract), so two runs differing only
// in parallelism share a cache entry.
func (c ScenarioConfig) CanonicalKey() (string, error) {
	n, err := c.validated()
	if err != nil {
		return "", err
	}
	return scenario.NewKey(scenario.Schema).
		Float("afford_share", n.AffordShare).
		Bool("calibrated", n.Calibrated).
		Str("constellation", n.Constellation).
		Float("cost_life_years", n.CostLifeYears).
		Float("cost_sat_usd", n.CostSatelliteUSD).
		Float("cost_terminal_usd", n.CostTerminalUSD).
		Str("experiment", n.Experiment).
		Float("max_oversub", n.MaxOversub).
		Strings("plans", n.Plans).
		Str("region", n.Region).
		Float("scale", n.Scale).
		Int64("seed", n.Seed).
		Floats("spreads", n.Spreads).
		Key()
}

// BuildModel constructs the model this scenario describes: the
// selected constellation's model (with any cost overrides applied),
// extended with the promoted knobs. For the default scenario this is
// exactly NewModel with the RunConfig's parallelism and calibration
// applied — the Starlink spec, untouched.
func (c ScenarioConfig) BuildModel() Model {
	n := c.Normalized()
	sys, ok := constellation.SystemByName(n.Constellation)
	if !ok {
		// Validate rejects unknown names; keep the method total by
		// falling back to the default system.
		sys = constellation.StarlinkSystem()
	}
	sys.Cost = n.appliedCost(sys.Cost)
	m := NewModelFor(sys).Parallelism(n.Parallelism)
	if n.Calibrated {
		m = m.Calibrated()
	}
	m.MaxOversub = n.MaxOversub
	m.AffordShare = n.AffordShare
	if len(n.Spreads) > 0 && !sameFloats(n.Spreads, paperTable2Spreads[:]) {
		m.Fig3Spreads = n.Spreads
	}
	m.PlanFilter = n.Plans
	return m
}

// Generate synthesizes the dataset this scenario describes: the
// embedded RunConfig identity (seed, scale) applied to the scenario's
// region, on up to Parallelism workers, byte-identically at every
// parallelism. An invalid RunConfig (a scale outside (0, 1], a
// negative parallelism) is an error.
func (c ScenarioConfig) Generate(ctx context.Context) (*Dataset, error) {
	if err := c.RunConfig.Validate(); err != nil {
		return nil, err
	}
	n := c.Normalized()
	return generateDataset(ctx, genOptions{
		seed: n.Seed, scale: n.Scale, region: n.Region, parallelism: n.Parallelism,
	})
}

// appliedCost folds the scenario's cost overrides into a system's
// declared cost model. An all-in satellite-cost override lands on the
// build line with the launch line zeroed (the override is the sum); an
// override equal to the declared sum is a no-op, so default scenarios
// leave the spec's build/launch composition — and the model value —
// untouched.
func (c ScenarioConfig) appliedCost(base constellation.CostModel) constellation.CostModel {
	//lint:ignore floatcmp canonical-identity comparison: the override is the same cost model only when it equals the declared sum bit-identically, the rule the canonical key encodes
	if c.CostSatelliteUSD > 0 && c.CostSatelliteUSD != base.AllInSatelliteUSD() {
		base.SatelliteBuildUSD = c.CostSatelliteUSD
		base.LaunchPerSatelliteUSD = 0
	}
	if c.CostLifeYears > 0 {
		base.DesignLifeYears = c.CostLifeYears
	}
	if c.CostTerminalUSD > 0 {
		base.TerminalSubsidyUSD = c.CostTerminalUSD
	}
	return base
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floatcmp canonical-identity comparison: spreads are the same scenario only if bit-identical, the same rule the canonical key encodes
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
