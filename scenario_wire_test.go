package leodivide

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestScenarioWireRoundTrip: a config rendered to wire form, parsed
// back strictly, and applied onto a default base reproduces the same
// canonical key — the contract that lets a query saved from the HTTP
// API replay byte-for-byte through the CLI's -scenario flag and back.
func TestScenarioWireRoundTrip(t *testing.T) {
	cfg := DefaultScenarioConfig("costcurve")
	cfg.Constellation = "oneweb"
	cfg.AffordShare = 0.03
	cfg.CostTerminalUSD = 650
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cfg.Request())
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseScenarioRequest(data)
	if err != nil {
		t.Fatalf("parse of own wire form: %v (body %s)", err, data)
	}
	got, err := req.Apply(ScenarioConfig{RunConfig: DefaultRunConfig()})
	if err != nil {
		t.Fatal(err)
	}
	gotKey, err := got.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Errorf("round-tripped key\n  %s\nwant\n  %s", gotKey, key)
	}
}

// TestScenarioRequestValidateSchema: only the current schema (or an
// empty one, the CLI convenience) is accepted; the retired v1 and v2
// schemas are rejected like any foreign one, through Apply too.
func TestScenarioRequestValidateSchema(t *testing.T) {
	for _, schema := range []string{"", ScenarioSchema} {
		r := ScenarioRequest{Schema: schema, Experiment: "table2"}
		if err := r.ValidateSchema(); err != nil {
			t.Errorf("schema %q rejected: %v", schema, err)
		}
	}
	base := ScenarioConfig{RunConfig: DefaultRunConfig()}
	for _, schema := range []string{"leodivide-serve/v1", "leodivide-serve/v2", "nope/v9"} {
		r := ScenarioRequest{Schema: schema, Experiment: "table2"}
		if err := r.ValidateSchema(); err == nil || !strings.Contains(err.Error(), ScenarioSchema) {
			t.Errorf("schema %q: err = %v, want a rejection naming %s", schema, err, ScenarioSchema)
		}
		if _, err := r.Apply(base); err == nil {
			t.Errorf("schema %q: Apply accepted the request", schema)
		}
	}
}

func TestParseScenarioRequestStrict(t *testing.T) {
	if _, err := ParseScenarioRequest([]byte(`{"experiment":"table2","warp":9}`)); err == nil {
		t.Error("unknown wire field accepted")
	}
	if _, err := ParseScenarioRequest([]byte(`{"experiment":"table2"}{}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := ParseScenarioRequest([]byte(`{"experiment":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	req, err := ParseScenarioRequest([]byte(`{"experiment":"xconst","constellation":"kuiper","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Experiment != "xconst" || req.Constellation != "kuiper" || req.Seed == nil || *req.Seed != 7 {
		t.Errorf("parsed request %+v lost fields", req)
	}
}
