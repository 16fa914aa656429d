package leodivide

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/region"
)

// scenarioKeyGoldenV3 is the exact byte layout of the default table2
// scenario's canonical key under the current schema; changing it
// invalidates every cached result and requires a schema bump.
const scenarioKeyGoldenV3 = "leodivide-serve/v3|afford_share=0.02|calibrated=false" +
	"|constellation=starlink|cost_life_years=5|cost_sat_usd=1.5e+06|cost_terminal_usd=300" +
	"|experiment=table2|max_oversub=20|plans=|region=us|scale=1|seed=1|spreads=1,2,5,10,15"

// TestScenarioCanonicalKeyGolden pins the exact byte layout of the
// canonical key. This string is a wire and cache contract.
func TestScenarioCanonicalKeyGolden(t *testing.T) {
	key, err := DefaultScenarioConfig("table2").CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != scenarioKeyGoldenV3 {
		t.Errorf("canonical key:\n got %q\nwant %q", key, scenarioKeyGoldenV3)
	}
}

func TestScenarioCanonicalKeyIdentity(t *testing.T) {
	base := DefaultScenarioConfig("fig4")
	baseKey, err := base.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}

	// Parallelism never changes experiment output, so it must not
	// change the key: two servers at different worker counts share
	// cache entries.
	par := base
	par.Parallelism = 8
	if k, err := par.CanonicalKey(); err != nil || k != baseKey {
		t.Errorf("parallelism changed the key: %q vs %q (err %v)", k, baseKey, err)
	}

	// Spelling out the paper defaults is the same scenario as leaving
	// the knobs zero.
	explicit := base
	explicit.MaxOversub = 20
	explicit.AffordShare = 0.02
	explicit.Spreads = []float64{1, 2, 5, 10, 15}
	if k, err := explicit.CanonicalKey(); err != nil || k != baseKey {
		t.Errorf("explicit paper defaults changed the key: %q vs %q (err %v)", k, baseKey, err)
	}

	// Plans normalize to sorted order: request order is presentation,
	// not identity.
	p1, p2 := base, base
	p1.Plans = []string{"Xfinity 300", "Starlink Residential"}
	p2.Plans = []string{"Starlink Residential", "Xfinity 300"}
	k1, err1 := p1.CanonicalKey()
	k2, err2 := p2.CanonicalKey()
	if err1 != nil || err2 != nil || k1 != k2 {
		t.Errorf("plan order changed the key: %q vs %q (errs %v, %v)", k1, k2, err1, err2)
	}
	if k1 == baseKey {
		t.Error("a plan filter must change the key")
	}

	// Every identity field is a knob that changes the key. The field
	// list is checked against the struct, so a field added later cannot
	// skip the key.
	knobs := []struct {
		field  string
		mutate func(*ScenarioConfig)
	}{
		{"MaxOversub", func(c *ScenarioConfig) { c.MaxOversub = 35 }},
		{"AffordShare", func(c *ScenarioConfig) { c.AffordShare = 0.05 }},
		{"Spreads", func(c *ScenarioConfig) { c.Spreads = []float64{2, 4} }},
		{"Plans", func(c *ScenarioConfig) { c.Plans = []string{"Xfinity 300"} }},
		{"Calibrated", func(c *ScenarioConfig) { c.Calibrated = true }},
		{"Seed", func(c *ScenarioConfig) { c.Seed = 2 }},
		{"Scale", func(c *ScenarioConfig) { c.Scale = 0.5 }},
		{"Experiment", func(c *ScenarioConfig) { c.Experiment = "fig3" }},
		{"Region", func(c *ScenarioConfig) { c.Region = "taipei-dense" }},
		{"Constellation", func(c *ScenarioConfig) { c.Constellation = "kuiper" }},
		{"CostSatelliteUSD", func(c *ScenarioConfig) { c.CostSatelliteUSD = 3e6 }},
		{"CostLifeYears", func(c *ScenarioConfig) { c.CostLifeYears = 7 }},
		{"CostTerminalUSD", func(c *ScenarioConfig) { c.CostTerminalUSD = 600 }},
	}
	covered := map[string]bool{"Parallelism": true}
	for _, k := range knobs {
		covered[k.field] = true
		c := base
		k.mutate(&c)
		key, err := c.CanonicalKey()
		if err != nil {
			t.Errorf("%s: %v", k.field, err)
			continue
		}
		if key == baseKey {
			t.Errorf("%s did not change the key %q", k.field, key)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[ScenarioConfig](), reflect.TypeFor[RunConfig]()} {
		for i := range typ.NumField() {
			if f := typ.Field(i); !f.Anonymous && !covered[f.Name] {
				t.Errorf("%s.%s has no knob in this test", typ.Name(), f.Name)
			}
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := DefaultScenarioConfig("table1").Validate(); err != nil {
		t.Errorf("default scenario invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ScenarioConfig)
		want   string
	}{
		{"no experiment", func(c *ScenarioConfig) { c.Experiment = "" }, "names no experiment"},
		{"unknown experiment", func(c *ScenarioConfig) { c.Experiment = "warpdrive" }, "unknown experiment"},
		{"bad scale", func(c *ScenarioConfig) { c.Scale = 0 }, "scale"},
		{"NaN oversub", func(c *ScenarioConfig) { c.MaxOversub = math.NaN() }, "oversubscription"},
		{"oversub below 1", func(c *ScenarioConfig) { c.MaxOversub = 0.5 }, "oversubscription"},
		{"oversub huge", func(c *ScenarioConfig) { c.MaxOversub = 1e6 }, "oversubscription"},
		{"share above 1", func(c *ScenarioConfig) { c.AffordShare = 2 }, "share"},
		{"share NaN", func(c *ScenarioConfig) { c.AffordShare = math.NaN() }, "share"},
		{"spread out of range", func(c *ScenarioConfig) { c.Spreads = []float64{0.5} }, "beamspread"},
		{"spreads descending", func(c *ScenarioConfig) { c.Spreads = []float64{5, 2} }, "ascending"},
		{"spreads duplicate", func(c *ScenarioConfig) { c.Spreads = []float64{2, 2} }, "ascending"},
		{"empty plan label", func(c *ScenarioConfig) { c.Plans = []string{""} }, "plan label"},
		{"padded plan label", func(c *ScenarioConfig) { c.Plans = []string{" Xfinity 300"} }, "plan label"},
		{"duplicate plan", func(c *ScenarioConfig) { c.Plans = []string{"Xfinity 300", "Xfinity 300"} }, "duplicate"},
		{"unknown plan", func(c *ScenarioConfig) { c.Plans = []string{"Dialup Deluxe"} }, `unknown plan "Dialup Deluxe"`},
		{"too many spreads", func(c *ScenarioConfig) {
			c.Spreads = make([]float64, maxSpreads+1)
			for i := range c.Spreads {
				c.Spreads[i] = float64(i + 1)
			}
		}, "at most 32 beamspreads, got 33"},
		{"unknown region", func(c *ScenarioConfig) { c.Region = "atlantis" }, "unknown region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultScenarioConfig("table1")
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := c.CanonicalKey(); err == nil {
				t.Error("CanonicalKey must refuse what Validate refuses")
			}
		})
	}
}

// TestScenarioBuildModel: the promoted knobs land on the Model, and a
// default scenario builds exactly NewModel — the scenario layer adds
// nothing when nothing is asked for.
func TestScenarioBuildModel(t *testing.T) {
	def := DefaultScenarioConfig("table2")
	if got, want := def.BuildModel(), NewModel(); !reflect.DeepEqual(got, want) {
		t.Errorf("default scenario model %+v differs from NewModel %+v", got, want)
	}

	c := def
	c.MaxOversub = 35
	c.AffordShare = 0.05
	c.Spreads = []float64{2, 4}
	c.Plans = []string{"Starlink Residential"}
	m := c.BuildModel()
	if m.MaxOversub != 35 || m.AffordShare != 0.05 {
		t.Errorf("knobs not applied: MaxOversub=%v AffordShare=%v", m.MaxOversub, m.AffordShare)
	}
	if !reflect.DeepEqual(m.Fig3Spreads, []float64{2, 4}) {
		t.Errorf("Fig3Spreads = %v, want [2 4]", m.Fig3Spreads)
	}
	if !reflect.DeepEqual(m.PlanFilter, []string{"Starlink Residential"}) {
		t.Errorf("PlanFilter = %v", m.PlanFilter)
	}

	// Explicit paper spreads leave Fig3Spreads nil — the same model as
	// the default, so DeepEqual-based equivalence keeps holding.
	paper := def
	paper.Spreads = []float64{1, 2, 5, 10, 15}
	if m := paper.BuildModel(); m.Fig3Spreads != nil {
		t.Errorf("paper spreads should normalize to nil Fig3Spreads, got %v", m.Fig3Spreads)
	}
}

// TestFig3SpreadOverridePaths pins Fig3's one override path, the
// Model.Fig3Spreads field (the ScenarioConfig knob): left empty, Fig3
// sweeps the paper's Table 2 spreads; set, it sweeps exactly those.
func TestFig3SpreadOverridePaths(t *testing.T) {
	ds := smallDataset(t, 1)
	cases := []struct {
		name  string
		field []float64
		want  []float64
	}{
		{name: "both empty -> paper spreads", want: PaperTable2Spreads()},
		{name: "field only wins", field: []float64{3, 7}, want: []float64{3, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel()
			m.Fig3Spreads = tc.field
			res, err := m.Fig3(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(res))
			for i, r := range res {
				got[i] = r.Spread
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("swept spreads %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFig3OverridesEndToEnd runs the spread knob through Fig3 on the
// real dataset: it matches the fixed-spread sweep that findings and
// economics use, and the registry's fig3 entry honors it.
func TestFig3OverridesEndToEnd(t *testing.T) {
	ctx := context.Background()
	ds := fullDataset(t)

	viaKnob := NewModel()
	viaKnob.Fig3Spreads = []float64{10}
	knobRes, err := viaKnob.Fig3(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewModel().fig3At(ctx, ds, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(knobRes, fixed) {
		t.Error("Fig3 via the Fig3Spreads knob differs from the fixed-spread sweep at spread 10")
	}
	if len(knobRes) != 1 || knobRes[0].Spread != 10 {
		t.Fatalf("override produced %d results (spread %v), want one at spread 10", len(knobRes), knobRes)
	}

	// The registry's fig3 entry honors the knob — the experiment and
	// the direct call are the same computation.
	exp, ok := viaKnob.ExperimentByName("fig3")
	if !ok {
		t.Fatal("fig3 experiment missing")
	}
	v, err := exp.Run(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, knobRes) {
		t.Error("registry fig3 run differs from direct Fig3 call with the same Fig3Spreads")
	}
}

// TestFig4PlanFilter drives the promoted plan/subsidy selection end to
// end on the real dataset.
func TestFig4PlanFilter(t *testing.T) {
	ctx := context.Background()
	ds := fullDataset(t)

	m := NewModel()
	m.PlanFilter = []string{"Starlink Residential"}
	r, err := m.Fig4(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 1 || r.Results[0].Plan.Name != "Starlink Residential" {
		t.Fatalf("filtered Fig4 returned %d results, want exactly Starlink Residential", len(r.Results))
	}

	unknown := NewModel()
	unknown.PlanFilter = []string{"Dialup Deluxe"}
	if _, err := unknown.Fig4(ctx, ds); err == nil || !strings.Contains(err.Error(), "Dialup Deluxe") {
		t.Errorf("unknown plan label: err = %v, want the label named", err)
	}

	// Findings needs the unsubsidized Starlink row; a filter that
	// excludes it must fail loudly, not report a wrong F4.
	noStarlink := NewModel()
	noStarlink.PlanFilter = []string{"Xfinity 300"}
	exp, ok := noStarlink.ExperimentByName("findings")
	if !ok {
		t.Fatal("findings experiment missing")
	}
	if _, err := exp.Run(ctx, ds); err == nil || !strings.Contains(err.Error(), "PlanFilter") {
		t.Errorf("findings without Starlink: err = %v, want a PlanFilter error", err)
	}
}

// scenarioKeyDigest is the SHA-256 of every canonical key in
// keyDigestScenarios, in order, one per line. The keys are the cache
// and wire identity of every served result, so a change to how names
// resolve or knobs normalize must leave this digest alone.
const scenarioKeyDigest = "2d2bcf20bc4fe59dc8c0d369ddc90528ca4f3fb073990c78aac2372a4251ac29"

// keyDigestScenarios is every registry experiment × constellation ×
// region under four knob variants: the defaults, an oversubscription
// cap, an affordability share and a satellite-cost override.
func keyDigestScenarios() []ScenarioConfig {
	variants := []func(*ScenarioConfig){
		func(*ScenarioConfig) {},
		func(c *ScenarioConfig) { c.MaxOversub = 25 },
		func(c *ScenarioConfig) { c.AffordShare = 0.025 },
		func(c *ScenarioConfig) { c.CostSatelliteUSD = 2e6 },
	}
	var out []ScenarioConfig
	for _, e := range NewModel().Experiments() {
		for _, sys := range constellation.SystemNames() {
			for _, reg := range region.Names() {
				for _, v := range variants {
					c := DefaultScenarioConfig(e.Name)
					c.Constellation = sys
					c.Region = reg
					v(&c)
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestScenarioCanonicalKeyDigest pins the canonical key of every
// registry experiment × constellation × region × knob variant, and
// checks that no two of these scenarios share a key.
func TestScenarioCanonicalKeyDigest(t *testing.T) {
	h := sha256.New()
	scenarios := keyDigestScenarios()
	seen := make(map[string]int, len(scenarios))
	for i, c := range scenarios {
		key, err := c.CanonicalKey()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		fmt.Fprintln(h, key)
		if j, dup := seen[key]; dup {
			t.Errorf("scenarios %d and %d share the key %q", j, i, key)
		}
		seen[key] = i
	}
	if n := len(scenarios); n != 14*4*3*4 {
		t.Errorf("%d scenarios, want %d", n, 14*4*3*4)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scenarioKeyDigest {
		t.Errorf("canonical key digest = %s, want %s", got, scenarioKeyDigest)
	}
}
