package leodivide

// ScenarioRequest is the single scenario wire contract: the JSON body
// of `POST /v1/scenario` and the value of the CLI's `-scenario <json>`
// flag are this exact shape, so a query saved from one entry point
// replays byte-for-byte through the other. internal/serve aliases it
// as its Request type; the CLI parses it with ParseScenarioRequest and
// merges it onto flag-derived defaults with Apply.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ScenarioRequest is the wire form of a scenario query. Dataset
// identity fields (seed, scale, calibrated) are pointers: absent means
// "inherit" (the server's dataset, or the CLI flags); the server
// answers against one immutable dataset, so present-but-different is a
// 409 there. Parallelism is not a wire knob at all — results are
// identical at every worker count.
type ScenarioRequest struct {
	Schema           string    `json:"schema"`
	Experiment       string    `json:"experiment"`
	Seed             *int64    `json:"seed,omitempty"`
	Scale            *float64  `json:"scale,omitempty"`
	Calibrated       *bool     `json:"calibrated,omitempty"`
	MaxOversub       float64   `json:"max_oversub,omitempty"`
	AffordShare      float64   `json:"afford_share,omitempty"`
	Spreads          []float64 `json:"spreads,omitempty"`
	Plans            []string  `json:"plans,omitempty"`
	Constellation    string    `json:"constellation,omitempty"`
	CostSatelliteUSD float64   `json:"cost_sat_usd,omitempty"`
	CostLifeYears    float64   `json:"cost_life_years,omitempty"`
	CostTerminalUSD  float64   `json:"cost_terminal_usd,omitempty"`
	Region           string    `json:"region,omitempty"`
}

// ParseScenarioRequest decodes the wire form strictly: unknown fields
// and trailing data are errors, and the schema declaration must be
// supported (see ValidateSchema).
func ParseScenarioRequest(data []byte) (ScenarioRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r ScenarioRequest
	if err := dec.Decode(&r); err != nil {
		return ScenarioRequest{}, fmt.Errorf("leodivide: scenario request: %w", err)
	}
	if dec.More() {
		return ScenarioRequest{}, fmt.Errorf("leodivide: scenario request: trailing data after JSON object")
	}
	if err := r.ValidateSchema(); err != nil {
		return ScenarioRequest{}, err
	}
	return r, nil
}

// ValidateSchema checks the request's schema declaration: empty (a CLI
// convenience meaning the current schema) or ScenarioSchema. Any other
// schema, including a retired one, is an error.
func (r ScenarioRequest) ValidateSchema() error {
	if r.Schema != "" && r.Schema != ScenarioSchema {
		return fmt.Errorf("leodivide: unsupported schema %q (want %q)", r.Schema, ScenarioSchema)
	}
	return nil
}

// Apply merges the request onto a base scenario: pointer fields
// override the base's dataset identity when present, a named
// experiment replaces the base's, and the value knobs replace the
// base's knobs wholesale (zero = "the default", exactly as in a
// ScenarioConfig). The merge is validated except for experiment
// presence — run/bench/serve each decide later whether a scenario
// without an experiment is acceptable.
func (r ScenarioRequest) Apply(base ScenarioConfig) (ScenarioConfig, error) {
	if err := r.ValidateSchema(); err != nil {
		return ScenarioConfig{}, err
	}
	c := base
	if r.Experiment != "" {
		c.Experiment = r.Experiment
	}
	if r.Seed != nil {
		c.Seed = *r.Seed
	}
	if r.Scale != nil {
		c.Scale = *r.Scale
	}
	if r.Calibrated != nil {
		c.Calibrated = *r.Calibrated
	}
	c.MaxOversub = r.MaxOversub
	c.AffordShare = r.AffordShare
	c.Spreads = r.Spreads
	c.Plans = r.Plans
	c.Constellation = r.Constellation
	c.CostSatelliteUSD = r.CostSatelliteUSD
	c.CostLifeYears = r.CostLifeYears
	c.CostTerminalUSD = r.CostTerminalUSD
	c.Region = r.Region
	if c.Experiment != "" {
		if err := c.Validate(); err != nil {
			return ScenarioConfig{}, err
		}
		return c, nil
	}
	if err := c.validateBase(); err != nil {
		return ScenarioConfig{}, err
	}
	return c, nil
}

// Request renders the scenario in wire form under the current schema,
// with the dataset identity spelled out. ParseScenarioRequest +
// Apply on the JSON of this value round-trips to a config with the
// same canonical key.
func (c ScenarioConfig) Request() ScenarioRequest {
	seed, scale, calibrated := c.Seed, c.Scale, c.Calibrated
	return ScenarioRequest{
		Schema:           ScenarioSchema,
		Experiment:       c.Experiment,
		Seed:             &seed,
		Scale:            &scale,
		Calibrated:       &calibrated,
		MaxOversub:       c.MaxOversub,
		AffordShare:      c.AffordShare,
		Spreads:          c.Spreads,
		Plans:            c.Plans,
		Constellation:    c.Constellation,
		CostSatelliteUSD: c.CostSatelliteUSD,
		CostLifeYears:    c.CostLifeYears,
		CostTerminalUSD:  c.CostTerminalUSD,
		Region:           c.Region,
	}
}
