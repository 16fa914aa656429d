package leodivide

// The validated functional-options constructor for ScenarioConfig.
// NewScenarioConfig is the preferred construction path: it normalizes
// (materializing every defaulted knob) and validates before returning,
// so a config it hands out is always runnable and canonical-key-ready.
// The struct-literal + DefaultScenarioConfig path keeps working but is
// deprecated in the docs: it defers validation to first use and leaves
// defaults implicit.

// ScenarioOption adjusts one knob of a ScenarioConfig under
// construction.
type ScenarioOption func(*ScenarioConfig)

// NewScenarioConfig builds a normalized, validated scenario for the
// named experiment:
//
//	cfg, err := leodivide.NewScenarioConfig("xconst",
//	    leodivide.WithConstellation("kuiper"),
//	    leodivide.WithOversub(25),
//	)
//
// Options apply in order (later wins); the result has every defaulted
// knob materialized, so its canonical key and BuildModel are stable
// regardless of which options were spelled out.
func NewScenarioConfig(experiment string, opts ...ScenarioOption) (ScenarioConfig, error) {
	c := DefaultScenarioConfig(experiment)
	for _, opt := range opts {
		opt(&c)
	}
	c = c.Normalized()
	if err := c.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	return c, nil
}

// WithConstellation selects the constellation system by canonical key
// ("starlink", "starlink-gen2", "kuiper", "oneweb").
func WithConstellation(name string) ScenarioOption {
	return func(c *ScenarioConfig) { c.Constellation = name }
}

// WithScenarioRegion selects the demand/income geography by canonical
// key ("us", "brazil-rural", "taipei-dense"). The name avoids
// colliding with WithRegion, the dataset-generation option that
// configures GenerateDataset directly.
func WithScenarioRegion(key string) ScenarioOption {
	return func(c *ScenarioConfig) { c.Region = key }
}

// WithOversub sets the acceptable oversubscription cap.
func WithOversub(maxOversub float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.MaxOversub = maxOversub }
}

// WithAffordShare sets the affordability threshold as a share of
// monthly income.
func WithAffordShare(share float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.AffordShare = share }
}

// WithSpreads sets the beamspread factors Fig3 evaluates (strictly
// ascending).
func WithSpreads(spreads ...float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.Spreads = spreads }
}

// WithPlans restricts the Fig4 comparison to the named plan labels.
func WithPlans(plans ...string) ScenarioOption {
	return func(c *ScenarioConfig) { c.Plans = plans }
}

// WithCalibrated pins constellation sizing to the paper's fitted
// effective cell count.
func WithCalibrated(on bool) ScenarioOption {
	return func(c *ScenarioConfig) { c.Calibrated = on }
}

// WithRunConfig replaces the embedded dataset identity (seed, scale,
// parallelism, calibration) wholesale. The name avoids colliding with
// the dataset-generation options WithSeed/WithScale, which configure
// GenerateDataset rather than a scenario.
func WithRunConfig(rc RunConfig) ScenarioOption {
	return func(c *ScenarioConfig) { c.RunConfig = rc }
}

// WithSatelliteCostUSD overrides the selected system's all-in
// (build+launch) satellite cost.
func WithSatelliteCostUSD(usd float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.CostSatelliteUSD = usd }
}

// WithDesignLifeYears overrides the selected system's satellite design
// life.
func WithDesignLifeYears(years float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.CostLifeYears = years }
}

// WithTerminalCostUSD overrides the selected system's per-subscriber
// terminal subsidy.
func WithTerminalCostUSD(usd float64) ScenarioOption {
	return func(c *ScenarioConfig) { c.CostTerminalUSD = usd }
}
