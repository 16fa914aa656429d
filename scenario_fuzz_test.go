package leodivide

// Fuzz targets for the scenario boundary: the JSON body every request
// arrives as, and the canonical key every cache slot is named by. Seed
// corpora under testdata/fuzz/ hold the golden scenarios and the
// serving layer's validation cases; they also run as plain test cases
// in every `go test`.

import (
	"encoding/json"
	"testing"

	"leodivide/internal/afford"
)

// FuzzParseScenarioRequest: no input panics the decoder, a request that
// Apply accepts carries at most maxSpreads spreads and at most one plan
// per known label, and an accepted request whose merged config
// validates has a canonical key that decodes and re-renders to itself,
// and that the request's own wire rendering (ScenarioConfig.Request)
// reproduces.
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
		back, err := ParseScenarioKey(key)
		if err != nil {
			t.Fatalf("key %q of accepted request %q does not decode: %v", key, data, err)
		}
		if again, err := back.CanonicalKey(); err != nil || again != key {
			t.Fatalf("key %q re-rendered as %q (err %v)", key, again, err)
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

// FuzzParseScenarioKey: no input panics the key decoder, and every key
// it accepts re-renders byte-identically — the decoder is CanonicalKey's
// exact inverse, so the cache key is injective. Keys under the retired
// schemas are seeds that must be rejected.
func FuzzParseScenarioKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string) {
		cfg, err := ParseScenarioKey(key)
		if err != nil {
			return
		}
		if again, err := cfg.CanonicalKey(); err != nil || again != key {
			t.Fatalf("accepted key %q re-rendered as %q (err %v)", key, again, err)
		}
	})
}
