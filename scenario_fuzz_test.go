package leodivide

// Fuzz targets for the scenario boundary: the JSON body every request
// arrives as, and the canonical key every cache slot is named by. Seed
// corpora under testdata/fuzz/ hold the golden scenarios and pairs of
// requests one identity field apart; they also run as plain test cases
// in every `go test`.

import (
	"encoding/json"
	"reflect"
	"testing"

	"leodivide/internal/afford"
)

// FuzzParseScenarioRequest: no input panics the decoder, a request that
// Apply accepts carries at most maxSpreads spreads and at most one plan
// per known label, and an accepted request that names an experiment
// has a canonical key that the request's own wire rendering
// (ScenarioConfig.Request) reproduces.
func FuzzParseScenarioRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseScenarioRequest(data)
		if err != nil {
			return
		}
		cfg, err := req.Apply(ScenarioConfig{RunConfig: DefaultRunConfig()})
		if err != nil {
			return
		}
		if len(cfg.Spreads) > maxSpreads {
			t.Fatalf("accepted request %q has %d spreads, bound %d", data, len(cfg.Spreads), maxSpreads)
		}
		if n := len(afford.PaperComparison()); len(cfg.Plans) > n {
			t.Fatalf("accepted request %q has %d plans, bound %d", data, len(cfg.Plans), n)
		}
		if cfg.Experiment == "" {
			return
		}
		key, err := cfg.CanonicalKey()
		if err != nil {
			t.Fatalf("accepted request %q has no key: %v", data, err)
		}
		wire, err := json.Marshal(cfg.Request())
		if err != nil {
			t.Fatal(err)
		}
		req2, err := ParseScenarioRequest(wire)
		if err != nil {
			t.Fatalf("wire form %s of an accepted request does not parse: %v", wire, err)
		}
		cfg2, err := req2.Apply(ScenarioConfig{RunConfig: DefaultRunConfig()})
		if err != nil {
			t.Fatalf("wire form %s of an accepted request does not apply: %v", wire, err)
		}
		if key2, err := cfg2.CanonicalKey(); err != nil || key2 != key {
			t.Fatalf("wire form %s keys as %q, want %q (err %v)", wire, key2, key, err)
		}
	})
}

// FuzzScenarioKeyInjective: the canonical key is injective. Two
// requests that both apply and validate under the same key describe
// the same scenario: their Normalized configs are equal once
// Parallelism, which the key leaves out on purpose, is zeroed. The
// seeds are pairs one identity field apart, so a field dropped from
// the key fails plain `go test`.
func FuzzScenarioKeyInjective(f *testing.F) {
	keyed := func(data []byte) (ScenarioConfig, string, bool) {
		req, err := ParseScenarioRequest(data)
		if err != nil {
			return ScenarioConfig{}, "", false
		}
		cfg, err := req.Apply(ScenarioConfig{RunConfig: DefaultRunConfig()})
		if err != nil {
			return ScenarioConfig{}, "", false
		}
		key, err := cfg.CanonicalKey()
		return cfg, key, err == nil
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca, ka, ok := keyed(a)
		if !ok {
			return
		}
		cb, kb, ok := keyed(b)
		if !ok || ka != kb {
			return
		}
		na, nb := ca.Normalized(), cb.Normalized()
		na.Parallelism, nb.Parallelism = 0, 0
		if !reflect.DeepEqual(na, nb) {
			t.Fatalf("requests %s and %s share the key %q but differ:\n%#v\n%#v", a, b, ka, na, nb)
		}
	})
}
