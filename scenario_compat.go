package leodivide

// Canonical-key decoding and the schema migration contract. Schema v3
// added the region selector; v2 added the constellation selector and
// cost-model overrides. Every key minted under an older schema
// describes a scenario that is still expressible — v1 maps to the
// Starlink default with declared costs, v2 to the default "us" region
// — so old keys keep decoding and map deterministically onto their
// current identity. That is what keeps cached identities stable across
// schema bumps: UpgradeScenarioKey(oldKey) equals the CanonicalKey of
// the same scenario asked for under the current schema.

import (
	"fmt"
	"strconv"
	"strings"

	"leodivide/internal/scenario"
)

// scenarioKeyFieldsV1/V2/V3 are the exact ordered field sets each
// schema's encoder writes. ParseScenarioKey requires a key to carry
// its schema's fields exactly — nothing missing, nothing unknown — so
// a truncated or hand-extended key is an error, not a silently
// defaulted scenario.
var (
	scenarioKeyFieldsV1 = []string{
		"afford_share", "calibrated", "experiment", "max_oversub",
		"plans", "scale", "seed", "spreads",
	}
	scenarioKeyFieldsV2 = []string{
		"afford_share", "calibrated", "constellation", "cost_life_years",
		"cost_sat_usd", "cost_terminal_usd", "experiment", "max_oversub",
		"plans", "scale", "seed", "spreads",
	}
	scenarioKeyFieldsV3 = []string{
		"afford_share", "calibrated", "constellation", "cost_life_years",
		"cost_sat_usd", "cost_terminal_usd", "experiment", "max_oversub",
		"plans", "region", "scale", "seed", "spreads",
	}
)

// ParseScenarioKey decodes a canonical key — schema v1, v2 or v3 —
// back into the ScenarioConfig it encodes. The returned config
// validates and re-encodes to a stable identity: for a v3 key, the
// same key (a v3 key in any other spelling is rejected); for a v2 key, the same scenario on the default "us"
// region; for a v1 key, the Starlink default with declared costs.
// Parallelism is not part of any key and comes back zero.
func ParseScenarioKey(key string) (ScenarioConfig, error) {
	schema, fields, err := scenario.ParseKey(key)
	if err != nil {
		return ScenarioConfig{}, err
	}
	var want []string
	switch schema {
	case ScenarioSchemaV1:
		want = scenarioKeyFieldsV1
	case ScenarioSchemaV2:
		want = scenarioKeyFieldsV2
	case ScenarioSchema:
		want = scenarioKeyFieldsV3
	default:
		return ScenarioConfig{}, fmt.Errorf("leodivide: unsupported scenario key schema %q (want %q, %q or %q)",
			schema, ScenarioSchema, ScenarioSchemaV2, ScenarioSchemaV1)
	}
	if len(fields) != len(want) {
		return ScenarioConfig{}, fmt.Errorf("leodivide: scenario key under %s carries %d fields, want %d",
			schema, len(fields), len(want))
	}
	cfg := ScenarioConfig{RunConfig: DefaultRunConfig()}
	for i, f := range fields {
		if f.Name != want[i] {
			return ScenarioConfig{}, fmt.Errorf("leodivide: scenario key field %q unknown under %s (want %q)",
				f.Name, schema, want[i])
		}
		if err := cfg.setKeyField(f); err != nil {
			return ScenarioConfig{}, fmt.Errorf("leodivide: scenario key field %s: %w", f.Name, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	if schema == ScenarioSchema {
		// A current-schema key must be the one spelling CanonicalKey
		// writes: "max_oversub=20.0" or an empty "region=" would
		// otherwise name the same scenario as a second cache identity.
		if canon, err := cfg.CanonicalKey(); err != nil || canon != key {
			return ScenarioConfig{}, fmt.Errorf("leodivide: scenario key %q is not in canonical form (want %q)", key, canon)
		}
	}
	return cfg, nil
}

// setKeyField decodes one canonical-key field into the config.
func (c *ScenarioConfig) setKeyField(f scenario.Field) error {
	switch f.Name {
	case "afford_share":
		return parseKeyFloat(f.Value, &c.AffordShare)
	case "calibrated":
		v, err := strconv.ParseBool(f.Value)
		if err != nil {
			return err
		}
		c.Calibrated = v
	case "constellation":
		c.Constellation = f.Value
	case "cost_life_years":
		return parseKeyFloat(f.Value, &c.CostLifeYears)
	case "cost_sat_usd":
		return parseKeyFloat(f.Value, &c.CostSatelliteUSD)
	case "cost_terminal_usd":
		return parseKeyFloat(f.Value, &c.CostTerminalUSD)
	case "experiment":
		c.Experiment = f.Value
	case "max_oversub":
		return parseKeyFloat(f.Value, &c.MaxOversub)
	case "plans":
		if f.Value != "" {
			c.Plans = strings.Split(f.Value, ",")
		}
	case "region":
		c.Region = f.Value
	case "scale":
		return parseKeyFloat(f.Value, &c.Scale)
	case "seed":
		v, err := strconv.ParseInt(f.Value, 10, 64)
		if err != nil {
			return err
		}
		c.Seed = v
	case "spreads":
		if f.Value == "" {
			return nil
		}
		parts := strings.Split(f.Value, ",")
		c.Spreads = make([]float64, len(parts))
		for i, p := range parts {
			if err := parseKeyFloat(p, &c.Spreads[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unhandled field %q", f.Name)
	}
	return nil
}

func parseKeyFloat(s string, dst *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// UpgradeScenarioKey maps any committed canonical key — v1, v2 or v3
// — to its identity under the current schema. v3 keys are fixpoints;
// v2 keys land on the "us"-region v3 key of the same scenario; v1 keys
// land on the Starlink-default v3 key. This is the cache-migration
// contract: an identity minted under any schema finds the same cache
// slot after the bump.
func UpgradeScenarioKey(key string) (string, error) {
	cfg, err := ParseScenarioKey(key)
	if err != nil {
		return "", err
	}
	return cfg.CanonicalKey()
}
