package leodivide

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// scenarioKeyGoldenV3 is the exact byte layout of the default table2
// scenario's canonical key under the current schema; changing it
// invalidates every cached result and requires a schema bump.
const scenarioKeyGoldenV3 = "leodivide-serve/v3|afford_share=0.02|calibrated=false" +
	"|constellation=starlink|cost_life_years=5|cost_sat_usd=1.5e+06|cost_terminal_usd=300" +
	"|experiment=table2|max_oversub=20|plans=|region=us|scale=1|seed=1|spreads=1,2,5,10,15"

// scenarioKeyGoldenV2 is the same scenario's key as committed under
// schema v2 (the layout every pre-v3 cache and client minted).
const scenarioKeyGoldenV2 = "leodivide-serve/v2|afford_share=0.02|calibrated=false" +
	"|constellation=starlink|cost_life_years=5|cost_sat_usd=1.5e+06|cost_terminal_usd=300" +
	"|experiment=table2|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"

// scenarioKeyGoldenV1 is the same scenario's key as committed under
// schema v1 (the layout every pre-v2 cache and client minted).
const scenarioKeyGoldenV1 = "leodivide-serve/v1|afford_share=0.02|calibrated=false|experiment=table2" +
	"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"

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

// TestScenarioKeyCompatV1 is the v1→current migration table: every
// committed v1 key layout decodes, maps to the Starlink default on the
// "us" region, and lands on the same current-schema identity a fresh
// encoding of that scenario produces — cached identities stay stable
// across the schema bumps.
func TestScenarioKeyCompatV1(t *testing.T) {
	v1Keys := []string{
		scenarioKeyGoldenV1,
		// Knob variants in the exact layout the v1 encoder produced.
		"leodivide-serve/v1|afford_share=0.025|calibrated=false|experiment=table2" +
			"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15",
		"leodivide-serve/v1|afford_share=0.02|calibrated=true|experiment=fig3" +
			"|max_oversub=25|plans=|scale=0.05|seed=2|spreads=2,4",
		"leodivide-serve/v1|afford_share=0.02|calibrated=false|experiment=fig4" +
			"|max_oversub=20|plans=Starlink Residential,Xfinity 300|scale=0.02|seed=1|spreads=1,2,5,10,15",
	}
	for _, v1 := range v1Keys {
		cfg, err := ParseScenarioKey(v1)
		if err != nil {
			t.Errorf("v1 key %q did not decode: %v", v1, err)
			continue
		}
		// v1 predates both selectors: it must map to the Starlink
		// default on the "us" region.
		if got := cfg.Normalized().Constellation; got != "starlink" {
			t.Errorf("v1 key %q mapped to constellation %q, want starlink", v1, got)
		}
		if got := cfg.Normalized().Region; got != "us" {
			t.Errorf("v1 key %q mapped to region %q, want us", v1, got)
		}
		up, err := UpgradeScenarioKey(v1)
		if err != nil {
			t.Errorf("v1 key %q did not upgrade: %v", v1, err)
			continue
		}
		want, err := cfg.CanonicalKey()
		if err != nil || up != want {
			t.Errorf("v1 key %q upgraded to %q, want %q (err %v)", v1, up, want, err)
		}
		if !strings.HasPrefix(up, ScenarioSchema+"|") {
			t.Errorf("upgraded key %q is not under schema %s", up, ScenarioSchema)
		}
		// Upgrading is idempotent: the current-schema key is a fixpoint.
		again, err := UpgradeScenarioKey(up)
		if err != nil || again != up {
			t.Errorf("upgrade not a fixpoint: %q -> %q (err %v)", up, again, err)
		}
	}

	// The golden v1 key lands exactly on the golden v3 key.
	if up, err := UpgradeScenarioKey(scenarioKeyGoldenV1); err != nil || up != scenarioKeyGoldenV3 {
		t.Errorf("golden v1 upgrade:\n got %q\nwant %q (err %v)", up, scenarioKeyGoldenV3, err)
	}
}

// TestScenarioKeyCompatV2 is the v2→v3 migration table, mirroring the
// v1 table: every committed v2 key layout decodes, maps to the default
// "us" region, and lands on the same v3 identity a fresh v3 encoding
// of that scenario produces — v2 cache entries stay reachable after
// the region bump.
func TestScenarioKeyCompatV2(t *testing.T) {
	v2Keys := []string{
		scenarioKeyGoldenV2,
		// Knob variants in the exact layout the v2 encoder produced.
		"leodivide-serve/v2|afford_share=0.02|calibrated=false|constellation=kuiper" +
			"|cost_life_years=7|cost_sat_usd=1e+06|cost_terminal_usd=600|experiment=xconst" +
			"|max_oversub=25|plans=|scale=0.05|seed=2|spreads=1,2,5,10,15",
		"leodivide-serve/v2|afford_share=0.03|calibrated=true|constellation=oneweb" +
			"|cost_life_years=5|cost_sat_usd=1.5e+06|cost_terminal_usd=300|experiment=fig3" +
			"|max_oversub=20|plans=|scale=0.02|seed=1|spreads=2,4",
		"leodivide-serve/v2|afford_share=0.02|calibrated=false|constellation=starlink" +
			"|cost_life_years=5|cost_sat_usd=1.5e+06|cost_terminal_usd=300|experiment=fig4" +
			"|max_oversub=20|plans=Starlink Residential,Xfinity 300|scale=0.02|seed=1|spreads=1,2,5,10,15",
	}
	for _, v2 := range v2Keys {
		cfg, err := ParseScenarioKey(v2)
		if err != nil {
			t.Errorf("v2 key %q did not decode: %v", v2, err)
			continue
		}
		// v2 predates the region selector: it must map to "us".
		if got := cfg.Normalized().Region; got != "us" {
			t.Errorf("v2 key %q mapped to region %q, want us", v2, got)
		}
		up, err := UpgradeScenarioKey(v2)
		if err != nil {
			t.Errorf("v2 key %q did not upgrade: %v", v2, err)
			continue
		}
		want, err := cfg.CanonicalKey()
		if err != nil || up != want {
			t.Errorf("v2 key %q upgraded to %q, want %q (err %v)", v2, up, want, err)
		}
		if !strings.HasPrefix(up, ScenarioSchema+"|") {
			t.Errorf("upgraded key %q is not under schema %s", up, ScenarioSchema)
		}
		// Upgrading is idempotent: the v3 key is a fixpoint.
		again, err := UpgradeScenarioKey(up)
		if err != nil || again != up {
			t.Errorf("upgrade not a fixpoint: %q -> %q (err %v)", up, again, err)
		}
		// The upgraded key differs from the v2 key only by schema prefix
		// and the inserted region field: the same cache-entry identity a
		// fresh "us"-region scenario mints.
		stripped := strings.Replace(up, "|region=us", "", 1)
		stripped = strings.Replace(stripped, ScenarioSchema, ScenarioSchemaV2, 1)
		if stripped != v2 {
			t.Errorf("upgrade changed more than schema+region:\n v2  %q\n got %q", v2, up)
		}
	}

	// The golden v2 key lands exactly on the golden v3 key.
	if up, err := UpgradeScenarioKey(scenarioKeyGoldenV2); err != nil || up != scenarioKeyGoldenV3 {
		t.Errorf("golden v2 upgrade:\n got %q\nwant %q (err %v)", up, scenarioKeyGoldenV3, err)
	}

	// A v3 scenario that selects a non-default region has no v2
	// spelling: its key must differ from every upgraded v2 key.
	br := DefaultScenarioConfig("table2")
	br.Region = "brazil-rural"
	brKey, err := br.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if brKey == scenarioKeyGoldenV3 {
		t.Error("a non-default region must change the canonical key")
	}
	if !strings.Contains(brKey, "|region=brazil-rural|") {
		t.Errorf("key %q does not carry the region field", brKey)
	}
}

// TestScenarioKeyParseRejects: unknown fields, missing fields, foreign
// schemas and out-of-order layouts are decode errors, never silently
// defaulted scenarios.
func TestScenarioKeyParseRejects(t *testing.T) {
	cases := []struct {
		name, key string
	}{
		{"unknown schema", "leodivide-serve/v9|afford_share=0.02"},
		{"empty schema", "|afford_share=0.02"},
		{"unknown field", scenarioKeyGoldenV1 + "|zz_custom=1"},
		{"missing fields", "leodivide-serve/v1|afford_share=0.02|calibrated=false"},
		{"v2 missing constellation", "leodivide-serve/v2" + scenarioKeyGoldenV1[len("leodivide-serve/v1"):]},
		{"v3 missing region", "leodivide-serve/v3" + scenarioKeyGoldenV2[len("leodivide-serve/v2"):]},
		{"v2 carrying region", strings.Replace(scenarioKeyGoldenV3, "leodivide-serve/v3", "leodivide-serve/v2", 1)},
		{"unknown region", strings.Replace(scenarioKeyGoldenV3, "region=us", "region=atlantis", 1)},
		{"non-canonical v3", strings.Replace(scenarioKeyGoldenV3, "max_oversub=20", "max_oversub=20.0", 1)},
		{"out of order", "leodivide-serve/v1|calibrated=false|afford_share=0.02|experiment=table2" +
			"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"},
		{"duplicate field", "leodivide-serve/v1|afford_share=0.02|afford_share=0.02|calibrated=false|experiment=table2" +
			"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"},
		{"bad float", "leodivide-serve/v1|afford_share=abc|calibrated=false|experiment=table2" +
			"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"},
		{"unknown experiment", "leodivide-serve/v1|afford_share=0.02|calibrated=false|experiment=warpdrive" +
			"|max_oversub=20|plans=|scale=1|seed=1|spreads=1,2,5,10,15"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenarioKey(tc.key); err == nil {
				t.Errorf("ParseScenarioKey accepted %q", tc.key)
			}
		})
	}
}

// TestScenarioKeyRoundTrip: ParseScenarioKey inverts CanonicalKey for
// non-default scenarios too, including constellation and cost
// overrides.
func TestScenarioKeyRoundTrip(t *testing.T) {
	cfg, err := NewScenarioConfig("xconst",
		WithConstellation("kuiper"),
		WithOversub(25),
		WithSatelliteCostUSD(3e6),
		WithDesignLifeYears(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenarioKey(key)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := back.CanonicalKey()
	if err != nil || key2 != key {
		t.Errorf("round trip changed the key:\n got %q\nwant %q (err %v)", key2, key, err)
	}
	if back.Constellation != "kuiper" || back.CostSatelliteUSD != 3e6 {
		t.Errorf("round trip lost fields: %+v", back)
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

	// Every real knob is identity-bearing.
	knobs := []func(*ScenarioConfig){
		func(c *ScenarioConfig) { c.MaxOversub = 35 },
		func(c *ScenarioConfig) { c.AffordShare = 0.05 },
		func(c *ScenarioConfig) { c.Spreads = []float64{2, 4} },
		func(c *ScenarioConfig) { c.Calibrated = true },
		func(c *ScenarioConfig) { c.Seed = 2 },
		func(c *ScenarioConfig) { c.Scale = 0.5 },
		func(c *ScenarioConfig) { c.Experiment = "fig3" },
		func(c *ScenarioConfig) { c.Region = "taipei-dense" },
	}
	for i, mutate := range knobs {
		c := base
		mutate(&c)
		k, err := c.CanonicalKey()
		if err != nil {
			t.Errorf("knob %d: %v", i, err)
			continue
		}
		if k == baseKey {
			t.Errorf("knob %d did not change the key %q", i, k)
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
// default scenario builds exactly what RunConfig alone builds — the
// scenario layer adds nothing when nothing is asked for.
func TestScenarioBuildModel(t *testing.T) {
	def := DefaultScenarioConfig("table2")
	if got, want := def.BuildModel(), def.RunConfig.BuildModel(); !reflect.DeepEqual(got, want) {
		t.Errorf("default scenario model %+v differs from plain RunConfig model %+v", got, want)
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

// TestFig3SpreadOverridePaths pins the resolution contract between
// Fig3's two override paths — the variadic argument and the
// Model.Fig3Spreads field (the ScenarioConfig knob): either alone wins,
// both empty selects the paper spreads, agreement is accepted, and a
// genuine conflict is a hard error rather than a silent preference.
func TestFig3SpreadOverridePaths(t *testing.T) {
	cases := []struct {
		name     string
		field    []float64
		variadic []float64
		want     []float64
		wantErr  bool
	}{
		{name: "both empty -> paper spreads", want: PaperTable2Spreads},
		{name: "field only wins", field: []float64{3, 7}, want: []float64{3, 7}},
		{name: "variadic only wins", variadic: []float64{4}, want: []float64{4}},
		{name: "agreement accepted", field: []float64{5, 10}, variadic: []float64{5, 10}, want: []float64{5, 10}},
		{name: "conflict is an error", field: []float64{5, 10}, variadic: []float64{2}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel()
			m.Fig3Spreads = tc.field
			got, err := m.resolveFig3Spreads(tc.variadic)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "conflicting Fig3 spread overrides") {
					t.Fatalf("err = %v, want a conflict error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("resolved %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFig3OverridesEndToEnd runs both override paths through Fig3
// itself on the real dataset: the scenario-knob path and the variadic
// path must produce identical results at the same spread, and the
// conflict error must surface from Fig3, not just the resolver.
func TestFig3OverridesEndToEnd(t *testing.T) {
	ctx := context.Background()
	ds := fullDataset(t)

	viaKnob := NewModel()
	viaKnob.Fig3Spreads = []float64{10}
	knobRes, err := viaKnob.Fig3(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	argRes, err := NewModel().Fig3(ctx, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(knobRes, argRes) {
		t.Error("Fig3 via Fig3Spreads knob differs from Fig3 via variadic argument at spread 10")
	}
	if len(knobRes) != 1 || knobRes[0].Spread != 10 {
		t.Fatalf("override produced %d results (spread %v), want one at spread 10", len(knobRes), knobRes)
	}

	if _, err := viaKnob.Fig3(ctx, ds, 2); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("conflicting overrides through Fig3: err = %v, want conflict error", err)
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
