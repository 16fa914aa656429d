package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"leodivide"
	"leodivide/internal/constellation"
	"leodivide/internal/memo"
	"leodivide/internal/obs"
)

// The test scale: small enough that dataset generation stays in the
// hundreds of milliseconds, the same scale the golden corpus freezes.
const testScale = 0.02

var (
	testDatasetOnce sync.Once
	testDataset     *leodivide.Dataset
	testDatasetErr  error
)

// sharedDataset generates the scale-0.02 dataset once for the whole
// package; the server treats it as immutable, so sharing is safe.
func sharedDataset(t *testing.T) *leodivide.Dataset {
	t.Helper()
	testDatasetOnce.Do(func() {
		testDataset, testDatasetErr = leodivide.GenerateDataset(context.Background(), leodivide.WithScale(testScale))
	})
	if testDatasetErr != nil {
		t.Fatal(testDatasetErr)
	}
	return testDataset
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	cfg.Scenario = leodivide.ScenarioConfig{RunConfig: base}
	if cfg.Dataset == nil {
		cfg.Dataset = sharedDataset(t)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postScenario(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// spreadList returns the JSON numbers 1, 2, …, n: n valid, ascending
// beamspreads (up to 1000).
func spreadList(n int) string {
	nums := make([]string, n)
	for i := range nums {
		nums[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(nums, ",")
}

func scenarioBody(experiment string, extra string) string {
	body := fmt.Sprintf(`{"schema":%q,"experiment":%q`, leodivide.ScenarioSchema, experiment)
	if extra != "" {
		body += "," + extra
	}
	return body + "}"
}

// TestScenarioCacheHit is the acceptance check: serving the same
// scenario twice hits the cache — the second response arrives without
// re-running the experiment (obs run counter unchanged) and is
// byte-identical to the first.
func TestScenarioCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	runs := obs.Default.Counter("experiment.table1.runs")

	before := runs.Value()
	resp1, body1 := postScenario(t, ts.URL, scenarioBody("table1", ""))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get(CacheHeader); h != "miss" {
		t.Errorf("first request %s = %q, want miss", CacheHeader, h)
	}
	afterFirst := runs.Value()
	if afterFirst != before+1 {
		t.Fatalf("first request ran the experiment %d times, want 1", afterFirst-before)
	}

	resp2, body2 := postScenario(t, ts.URL, scenarioBody("table1", ""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("second request %s = %q, want hit", CacheHeader, h)
	}
	if got := runs.Value(); got != afterFirst {
		t.Errorf("second request re-ran the experiment (runs %d -> %d); cache must serve it", afterFirst, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response differs from the original bytes")
	}

	var r Response
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	cfg := leodivide.DefaultScenarioConfig("table1")
	cfg.Scale = testScale
	wantKey, err := cfg.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if r.Key != wantKey {
		t.Errorf("response key %q, want canonical key %q", r.Key, wantKey)
	}
	if r.Schema != leodivide.ScenarioSchema || r.Experiment != "table1" || r.Scale != testScale {
		t.Errorf("response envelope %+v mismatches the scenario", r)
	}
}

// TestScenarioConcurrentIdentical: after a warm-up, N concurrent
// identical queries are all served from the cache — zero further
// experiment runs, byte-identical bodies — under `go test -race`.
func TestScenarioConcurrentIdentical(t *testing.T) {
	const n = 16
	_, ts := newTestServer(t, Config{})
	runs := obs.Default.Counter("experiment.fig1.runs")
	body := scenarioBody("fig1", "")

	_, warm := postScenario(t, ts.URL, body)
	before := runs.Value()

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if got := runs.Value(); got != before {
		t.Errorf("concurrent identical queries ran the experiment %d more times, want 0", got-before)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, warm) {
			t.Errorf("response %d differs from the warm response", i)
		}
	}
}

// TestScenarioKnobs: a promoted knob (max_oversub) changes the key and
// the result; the default and an explicit default collapse to one key.
func TestScenarioKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("findings", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("findings", `"max_oversub":20`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default max_oversub should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit default produced different bytes than the implicit default")
	}

	respLoose, loose := postScenario(t, ts.URL, scenarioBody("findings", `"max_oversub":35`))
	if respLoose.StatusCode != http.StatusOK {
		t.Fatalf("max_oversub 35: %d %s", respLoose.StatusCode, loose)
	}
	if respLoose.Header.Get(CacheHeader) != "miss" {
		t.Errorf("a new oversubscription cap must be a cache miss")
	}
	var d, l Response
	if err := json.Unmarshal(def, &d); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(loose, &l); err != nil {
		t.Fatal(err)
	}
	if d.Key == l.Key {
		t.Error("different oversubscription caps share a canonical key")
	}
	if bytes.Equal(def, loose) {
		t.Error("findings at 35:1 should differ from 20:1 (F1 depends on the cap)")
	}
}

// TestServedBodiesMatchMarshal is the serving benchmark's per-request
// check in tier-1: for every experiment under the default scenario, an
// oversubscription cap, another constellation and another region, the
// served body is byte for byte json.Marshal of a Response built from a
// library run of the same scenario on a dataset of the test's own.
func TestServedBodiesMatchMarshal(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestServer(t, Config{})
	base := leodivide.ScenarioConfig{RunConfig: leodivide.RunConfig{Seed: leodivide.DefaultRunConfig().Seed, Scale: testScale}}
	datasets := map[string]*leodivide.Dataset{}
	for _, variant := range []leodivide.ScenarioRequest{
		{},
		{MaxOversub: 25},
		{Constellation: "kuiper"},
		{Region: "taipei-dense"},
	} {
		for _, e := range leodivide.NewModel().Experiments() {
			req := variant
			req.Schema, req.Experiment = leodivide.ScenarioSchema, e.Name
			cfg, err := req.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.Normalized()
			ds, ok := datasets[n.Region]
			if !ok {
				if ds, err = cfg.Generate(ctx); err != nil {
					t.Fatal(err)
				}
				datasets[n.Region] = ds
			}
			key, err := cfg.CanonicalKey()
			if err != nil {
				t.Fatal(err)
			}
			exp, _ := cfg.BuildModel().ExperimentByName(n.Experiment)
			v, err := exp.Run(ctx, ds)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(Response{
				Schema: leodivide.ScenarioSchema, Key: key, Experiment: n.Experiment,
				Seed: n.Seed, Scale: n.Scale, Result: v,
			})
			if err != nil {
				t.Fatal(err)
			}
			reqBody, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, got := postScenario(t, ts.URL, string(reqBody))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", reqBody, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: served body differs from json.Marshal(Response{…})\n got %.200s\nwant %.200s", reqBody, got, want)
			}
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"wrong schema", `{"schema":"nope/v9","experiment":"table1"}`, http.StatusBadRequest},
		{"missing experiment", scenarioBody("", ""), http.StatusBadRequest},
		{"unknown experiment", scenarioBody("tableau", ""), http.StatusBadRequest},
		{"unknown field", scenarioBody("table1", `"warp":9`), http.StatusBadRequest},
		{"negative oversub", scenarioBody("table2", `"max_oversub":-5`), http.StatusBadRequest},
		{"share above 1", scenarioBody("fig4", `"afford_share":1.5`), http.StatusBadRequest},
		{"descending spreads", scenarioBody("fig3", `"spreads":[10,2]`), http.StatusBadRequest},
		{"unknown plan", scenarioBody("fig4", `"plans":["Dialup Deluxe"]`), http.StatusBadRequest},
		{"500 spreads", scenarioBody("fig3", `"spreads":[`+spreadList(500)+`]`), http.StatusBadRequest},
		{"seed mismatch", scenarioBody("table1", `"seed":99`), http.StatusConflict},
		{"scale mismatch", scenarioBody("table1", `"scale":0.5`), http.StatusConflict},
		{"not json", `table1 please`, http.StatusBadRequest},
		{"trailing data", scenarioBody("fig1", "") + " junk", http.StatusBadRequest},
		{"empty schema", `{"experiment":"table1"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postScenario(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not {\"error\": ...}", body)
			}
			if tc.name == "missing experiment" && !strings.Contains(e.Error, "scenario names no experiment") {
				t.Errorf("error %q does not say the scenario names no experiment", e.Error)
			}
		})
	}
}

// A plan filter is a real knob: fig4 restricted to one plan returns a
// smaller comparison.
func TestScenarioPlanFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postScenario(t, ts.URL,
		scenarioBody("fig4", `"plans":["Starlink Residential"]`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig4 with plan filter: %d %s", resp.StatusCode, body)
	}
	var r struct {
		Result leodivide.Fig4Result `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Results) != 1 || r.Result.Results[0].Plan.Name != "Starlink Residential" {
		t.Errorf("filtered fig4 returned %d results, want exactly Starlink Residential", len(r.Result.Results))
	}
}

// TestScenarioSchemaCompat: the current schema is the only one served.
// A body under a retired schema — v1, v2, or one that uses a field its
// schema predates — is a 400 naming the current schema, counted once in
// serve.errors.
func TestScenarioSchemaCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"schema":"leodivide-serve/v1","experiment":"table1"}`,
		`{"schema":"leodivide-serve/v1","experiment":"table1","constellation":"kuiper"}`,
		`{"schema":"leodivide-serve/v2","experiment":"fig1"}`,
		`{"schema":"leodivide-serve/v2","experiment":"fig1","region":"brazil-rural"}`,
	} {
		before := metricErrors.Value()
		resp, got := postScenario(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, got)
		}
		if !strings.Contains(string(got), leodivide.ScenarioSchema) {
			t.Errorf("%s: error %s does not name %s", body, got, leodivide.ScenarioSchema)
		}
		if d := metricErrors.Value() - before; d != 1 {
			t.Errorf("%s: serve.errors rose by %d, want 1", body, d)
		}
	}
}

// TestScenarioConstellation: selecting a constellation is a real knob —
// a new cache key and a different result — and unknown names are a 400
// that lists the valid options, mirroring the unknown-experiment shape.
func TestScenarioConstellation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("xconst", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("xconst", `"constellation":"starlink"`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default constellation should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit starlink produced different bytes than the implicit default")
	}

	respK, kuiper := postScenario(t, ts.URL, scenarioBody("table2", `"constellation":"kuiper"`))
	if respK.StatusCode != http.StatusOK {
		t.Fatalf("kuiper table2: %d %s", respK.StatusCode, kuiper)
	}
	if respK.Header.Get(CacheHeader) != "miss" {
		t.Error("a new constellation must be a cache miss")
	}
	_, starlink := postScenario(t, ts.URL, scenarioBody("table2", ""))
	if bytes.Equal(kuiper, starlink) {
		t.Error("kuiper table2 should differ from starlink table2")
	}

	respU, bad := postScenario(t, ts.URL, scenarioBody("table2", `"constellation":"iridium"`))
	if respU.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown constellation: %d %s, want 400", respU.StatusCode, bad)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bad, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, `"iridium"`) {
		t.Errorf("error %q does not name the unknown constellation", e.Error)
	}
	for _, name := range []string{"starlink", "starlink-gen2", "kuiper", "oneweb"} {
		if !strings.Contains(e.Error, name) {
			t.Errorf("error %q does not list valid option %q", e.Error, name)
		}
	}
}

// TestScenarioRegion: the region selector is a real knob — an explicit
// default shares the default's cache entry, a sibling geography is a
// fresh miss with a different result (served lazily from a dataset
// generated at the server's own seed/scale), and unknown names are a
// 400 listing the valid set.
func TestScenarioRegion(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("fig1", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"us"`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default region should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit us produced different bytes than the implicit default")
	}

	respB, brazil := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"brazil-rural"`))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("brazil-rural fig1: %d %s", respB.StatusCode, brazil)
	}
	if respB.Header.Get(CacheHeader) != "miss" {
		t.Error("a new region must be a cache miss")
	}
	if bytes.Equal(brazil, def) {
		t.Error("brazil-rural fig1 should differ from us fig1")
	}
	respB2, brazil2 := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"brazil-rural"`))
	if h := respB2.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("repeated brazil-rural query %s = %q, want hit", CacheHeader, h)
	}
	if !bytes.Equal(brazil, brazil2) {
		t.Error("repeated brazil-rural query returned different bytes")
	}
	respT, taipei := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"taipei-dense"`))
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("taipei-dense fig1: %d %s", respT.StatusCode, taipei)
	}
	if bytes.Equal(taipei, brazil) || bytes.Equal(taipei, def) {
		t.Error("taipei-dense fig1 should differ from both siblings")
	}

	respU, bad := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"atlantis"`))
	if respU.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown region: %d %s, want 400", respU.StatusCode, bad)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bad, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, `"atlantis"`) {
		t.Errorf("error %q does not name the unknown region", e.Error)
	}
	for _, name := range []string{"us", "brazil-rural", "taipei-dense"} {
		if !strings.Contains(e.Error, name) {
			t.Errorf("error %q does not list valid option %q", e.Error, name)
		}
	}

}

// TestScenarioBaseRegionInherited: a server started on a non-US region
// answers a request that names no region on that region, byte for byte
// as if the request had named it, without generating any sibling
// geography. On a US server the omitted region is still "us".
func TestScenarioBaseRegionInherited(t *testing.T) {
	base := leodivide.DefaultRunConfig()
	base.Scale = 0.05
	s, err := New(context.Background(), Config{
		Scenario: leodivide.ScenarioConfig{RunConfig: base, Region: "brazil-rural"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, implicit := postScenario(t, ts.URL, scenarioBody("fig1", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region-less fig1: %d %s", resp.StatusCode, implicit)
	}
	var r Response
	if err := json.Unmarshal(implicit, &r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Key, "|region=brazil-rural|") {
		t.Errorf("region-less request on a brazil-rural server got key %q", r.Key)
	}
	resp, explicit := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"brazil-rural"`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit base region %s = %q, want hit", CacheHeader, h)
	}
	if !bytes.Equal(implicit, explicit) {
		t.Error("explicit base region produced different bytes than the region-less request")
	}
	if h, mi, c, _ := s.regions.Counters(); h+mi+c != 0 || s.regions.Len() != 0 {
		t.Errorf("sibling-region memo (hits, misses, coalesced) = (%d, %d, %d), %d datasets; want no lookups",
			h, mi, c, s.regions.Len())
	}

	us, uts := newTestServer(t, Config{})
	_, def := postScenario(t, uts.URL, scenarioBody("fig1", ""))
	if err := json.Unmarshal(def, &r); err != nil {
		t.Fatal(err)
	}
	want := leodivide.DefaultScenarioConfig("fig1")
	want.Scale = testScale
	if key, err := want.CanonicalKey(); err != nil || r.Key != key {
		t.Errorf("region-less request on a us server got key %q, want %q (err %v)", r.Key, key, err)
	}
	if h, mi, c, _ := us.regions.Counters(); h+mi+c != 0 {
		t.Errorf("us server looked up a sibling region for a region-less request")
	}
}

func TestRegionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/regions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []regionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"us", "brazil-rural", "taipei-dense"}
	if len(list) != len(wantNames) {
		t.Fatalf("listed %d regions, want %d", len(list), len(wantNames))
	}
	for i, r := range list {
		if r.Name != wantNames[i] {
			t.Errorf("region %d = %q, want %q", i, r.Name, wantNames[i])
		}
		if r.DisplayName == "" || r.Description == "" {
			t.Errorf("region %q has empty display name or description: %+v", r.Name, r)
		}
	}
}

func TestConstellationsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/constellations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []constellationInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"starlink", "starlink-gen2", "kuiper", "oneweb"}
	if len(list) != len(wantNames) {
		t.Fatalf("listed %d constellations, want %d", len(list), len(wantNames))
	}
	for i, c := range list {
		if c.Name != wantNames[i] {
			t.Errorf("constellation %d = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Satellites <= 0 || c.Shells <= 0 || c.CellCapacityGbps <= 0 {
			t.Errorf("constellation %q has degenerate spec: %+v", c.Name, c)
		}
		if c.CostSatelliteUSD <= 0 || c.CostLifeYears <= 0 {
			t.Errorf("constellation %q has degenerate cost defaults: %+v", c.Name, c)
		}
	}
}

// TestConstellationsEndpointUnaliased: mutating the systems the
// constellation package hands out does not reach the declared table,
// so GET /v1/constellations answers the same bytes afterwards.
func TestConstellationsEndpointUnaliased(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/constellations")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := get()
	sys, _ := constellation.SystemByName("starlink")
	sys.Bands[0].WidthMHz = 1
	sys.Shells[0].Total = 1
	for _, sys := range constellation.Systems() {
		sys.Bands[0].WidthMHz = 1
		sys.Shells[0].Total = 1
	}
	if after := get(); !bytes.Equal(before, after) {
		t.Errorf("/v1/constellations changed after mutating returned systems:\n%s\n%s", before, after)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	want := leodivide.NewModel().Experiments()
	if len(list) != len(want) {
		t.Fatalf("listed %d experiments, registry has %d", len(list), len(want))
	}
	for i, e := range want {
		if list[i].Name != e.Name {
			t.Errorf("experiment %d = %q, want %q", i, list[i].Name, e.Name)
		}
	}
}

func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCounters spins until the memo's counters satisfy ok.
func waitCounters[V any](m *memo.Memo[V], ok func(hits, misses, coalesced int64) bool) {
	for {
		if h, mi, c, _ := m.Counters(); ok(h, mi, c) {
			return
		}
		runtime.Gosched()
	}
}

// TestStatsEndpoint pins the counting rule documented on Stats: the
// cache fields are the result memo's own counters, one status per
// request that reaches the memo, failed runs included.
func TestStatsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	postScenario(t, ts.URL, scenarioBody("table1", ""))

	// A coalesced request: hold the only admission slot so the leader
	// waits inside its fill, and release it once a follower has joined.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := scenarioBody("fig1", "")
	bodies := make(chan []byte, 2)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, b := postScenario(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, b)
		}
		bodies <- b
	}
	wg.Add(2)
	go post()
	waitCounters(s.results, func(_, misses, _ int64) bool { return misses == 2 })
	go post()
	waitCounters(s.results, func(_, _, coalesced int64) bool { return coalesced == 1 })
	s.gate.Release()
	wg.Wait()
	if a, b := <-bodies, <-bodies; !bytes.Equal(a, b) {
		t.Error("leader and coalesced follower got different bytes")
	}

	// A failing run (findings needs the Starlink plan the filter drops):
	// a miss and an error, and nothing cached.
	if resp, b := postScenario(t, ts.URL, scenarioBody("findings", `"plans":["Xfinity 300"]`)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing run: %d %s, want 500", resp.StatusCode, b)
	}
	// A request rejected before the cache: a request and an error only.
	postScenario(t, ts.URL, scenarioBody("tableau", ""))

	st := getStats(t, ts.URL)
	if st.Requests != 6 || st.Hits != 1 || st.Misses != 3 || st.Coalesced != 1 || st.Errors != 2 {
		t.Errorf("stats = %+v, want 6 requests, 1 hit, 3 misses, 1 coalesced, 2 errors", st)
	}
	if st.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", st.CacheEntries)
	}
	if st.CacheBytes <= 0 {
		t.Errorf("cache bytes = %d, want > 0 after a cached result", st.CacheBytes)
	}
	if st.CacheMaxBytes != DefaultCacheBytes {
		t.Errorf("cache max bytes = %d, want the default %d", st.CacheMaxBytes, DefaultCacheBytes)
	}
}

// TestCancelledLeaderServesFollowers: a leader whose client goes away
// while it waits for admission still runs the fill, so a coalesced
// follower whose client stayed gets a 200 with the body a fresh run
// gives, not the leader's cancellation.
func TestCancelledLeaderServesFollowers(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 1})
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := scenarioBody("fig1", "")
	serveTo := func(ctx context.Context, done chan<- *httptest.ResponseRecorder) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/scenario", strings.NewReader(body)).WithContext(ctx)
		s.Handler().ServeHTTP(w, r)
		done <- w
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go serveTo(leaderCtx, leader)
	waitCounters(s.results, func(_, misses, _ int64) bool { return misses == 1 })
	go serveTo(context.Background(), follower)
	waitCounters(s.results, func(_, _, coalesced int64) bool { return coalesced == 1 })

	cancelLeader()
	// A fill that followed the leader's cancellation fails the follower
	// now, while the slot is still held; give it the time to.
	select {
	case w := <-follower:
		s.gate.Release()
		t.Fatalf("follower answered %d before the slot freed: %s", w.Code, w.Body)
	case <-time.After(50 * time.Millisecond):
	}
	s.gate.Release()
	<-leader
	w := <-follower
	if w.Code != http.StatusOK {
		t.Fatalf("follower: status %d: %s, want 200", w.Code, w.Body)
	}
	_, fresh := newTestServer(t, Config{})
	resp, want := postScenario(t, fresh.URL, body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("follower body differs from a fresh run's (status %d)", resp.StatusCode)
	}
}

// TestPanickingExperimentAnswers500: a run that panics (fig1 over a
// dataset without a distribution) answers 500 with a JSON error body,
// counts in errors and serve.errors, caches nothing and frees its
// admission slot; a follower coalesced on the leader's key gets the
// same error.
func TestPanickingExperimentAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{Dataset: &leodivide.Dataset{Seed: 1, Scale: testScale}, MaxInflight: 1})
	serveErrors := obs.Default.Counter("serve.errors")
	before := serveErrors.Value()
	body := scenarioBody("fig1", "")
	check := func(who string, code int, b []byte) string {
		t.Helper()
		var e errorResponse
		if code != http.StatusInternalServerError || json.Unmarshal(b, &e) != nil || !strings.Contains(e.Error, "panicked") {
			t.Fatalf("%s: status %d: %s, want 500 with a JSON error naming the panic", who, code, b)
		}
		return e.Error
	}
	for i := 0; i < 2; i++ {
		resp, b := postScenario(t, ts.URL, body)
		check(fmt.Sprintf("request %d", i), resp.StatusCode, b)
	}
	st := getStats(t, ts.URL)
	if st.Errors != 2 || st.CacheEntries != 0 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want 2 errors, 0 cache entries, 0 inflight", st)
	}
	if got := serveErrors.Value() - before; got != 2 {
		t.Errorf("serve.errors rose by %d, want 2", got)
	}

	// Hold the only admission slot so the leader waits inside its fill
	// until a follower has joined it.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	answers := make(chan *httptest.ResponseRecorder, 2)
	serve := func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/scenario", strings.NewReader(body)))
		answers <- w
	}
	go serve()
	waitCounters(s.results, func(_, misses, _ int64) bool { return misses == 3 })
	go serve()
	waitCounters(s.results, func(_, _, coalesced int64) bool { return coalesced == 1 })
	s.gate.Release()
	a, b := <-answers, <-answers
	if check("leader", a.Code, a.Body.Bytes()) != check("follower", b.Code, b.Body.Bytes()) {
		t.Errorf("leader and follower got different errors: %s / %s", a.Body, b.Body)
	}
}

// TestEvictionsCounted: an eviction shows in /v1/stats and in the
// process-wide serve.cache.evictions metric.
func TestEvictionsCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	evictions := obs.Default.Counter("serve.cache.evictions")
	before := evictions.Value()
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	postScenario(t, ts.URL, scenarioBody("fig1", ""))
	st := getStats(t, ts.URL)
	if st.CacheEntries != 1 || st.Evictions != 1 {
		t.Errorf("negative CacheEntries: (entries, evictions) = (%d, %d), want (1, 1)", st.CacheEntries, st.Evictions)
	}
	if got := evictions.Value() - before; got != 1 {
		t.Errorf("serve.cache.evictions rose by %d, want 1", got)
	}
}

// TestRegionDatasetGeneratedOnce: concurrent first queries naming one
// sibling region share a single generation, under -race. Identical
// queries get byte-identical bodies, and distinct queries for the
// region reuse the one dataset. A failed generation is not kept: the
// next query for that region generates it afresh.
func TestRegionDatasetGeneratedOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	same := scenarioBody("fig1", `"region":"brazil-rural"`)
	var bodies []string
	for i := 0; i < 4; i++ {
		bodies = append(bodies, same)
	}
	distinct := []string{"table1", "table2", "fig4", "findings"}
	for _, exp := range distinct {
		bodies = append(bodies, scenarioBody(exp, `"region":"brazil-rural"`))
	}
	got := make([][]byte, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, b := postScenario(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, b)
			}
			got[i] = b
		}(i, body)
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		if !bytes.Equal(got[i], got[0]) {
			t.Errorf("identical brazil-rural query %d returned different bytes", i)
		}
	}
	// Each distinct scenario asks for the region once; only one of
	// those asks generates.
	if h, mi, c, _ := s.regions.Counters(); mi != 1 || h+mi+c != int64(1+len(distinct)) {
		t.Errorf("region memo (hits, misses, coalesced) = (%d, %d, %d), want 1 miss of %d lookups", h, mi, c, 1+len(distinct))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.datasetFor(ctx, "taipei-dense"); !errors.Is(err, context.Canceled) {
		t.Fatalf("generation under a cancelled ctx: err = %v, want context.Canceled", err)
	}
	if n := s.regions.Len(); n != 1 {
		t.Errorf("region memo holds %d datasets after a failed generation, want 1", n)
	}
	if resp, b := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"taipei-dense"`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after a failed generation: %d %s", resp.StatusCode, b)
	}
	if _, mi, _, _ := s.regions.Counters(); mi != 3 || s.regions.Len() != 2 {
		t.Errorf("region memo: %d misses, %d datasets; want 3 and 2", mi, s.regions.Len())
	}
}

// failingWriter is a response writer whose client has gone away.
type failingWriter struct{ http.ResponseWriter }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteFailuresCounted: a response write that fails is counted in
// serve.write_errors rather than dropped.
func TestWriteFailuresCounted(t *testing.T) {
	writeErrors := obs.Default.Counter("serve.write_errors")
	before := writeErrors.Value()
	writeJSON(failingWriter{httptest.NewRecorder()}, http.StatusOK, []string{"x"})
	if got := writeErrors.Value() - before; got != 1 {
		t.Errorf("serve.write_errors rose by %d after a failed write, want 1", got)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, b)
	}
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "serve.requests") {
		t.Errorf("metrics endpoint does not expose serve.requests:\n%.400s", b)
	}
}

// TestRunGracefulShutdown: Run serves until its context is cancelled,
// then drains and returns nil.
func TestRunGracefulShutdown(t *testing.T) {
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	s, err := New(context.Background(), Config{
		Scenario: leodivide.ScenarioConfig{RunConfig: base},
		Dataset:  sharedDataset(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestShutdownEndsWaitingFill: a fill still waiting for admission when
// Run's drain window expires ends with the server. Run returns, and the
// leader and a follower coalesced on it both answer 503 with a JSON
// error while the admission slot is still held.
func TestShutdownEndsWaitingFill(t *testing.T) {
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	s, err := New(context.Background(), Config{
		Scenario:    leodivide.ScenarioConfig{RunConfig: base},
		Dataset:     sharedDataset(t),
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Free the slot however the test ends, so nothing it started hangs.
	defer s.gate.Release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln, 100*time.Millisecond) }()

	type answer struct {
		code int
		body []byte
		err  error
	}
	answers := make(chan answer, 2)
	post := func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/scenario", "application/json", strings.NewReader(scenarioBody("fig1", "")))
		if err != nil {
			answers <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		answers <- answer{resp.StatusCode, b, err}
	}
	go post()
	waitCounters(s.results, func(_, misses, _ int64) bool { return misses == 1 })
	go post()
	waitCounters(s.results, func(_, _, coalesced int64) bool { return coalesced == 1 })

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Run returned %v, want the expired drain's deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its 100ms drain")
	}
	for _, who := range []string{"first", "second"} {
		select {
		case a := <-answers:
			var e errorResponse
			if a.err != nil || a.code != http.StatusServiceUnavailable || json.Unmarshal(a.body, &e) != nil || e.Error == "" {
				t.Errorf("%s answer: status %d, body %s, err %v; want 503 with a JSON error", who, a.code, a.body, a.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the %s request waiting on the fill did not answer after shutdown", who)
		}
	}
}

// TestScenarioBodyTooLarge: a body over maxBodyBytes is a 413 with a
// JSON error, counted in serve.errors, and never reaches the cache.
func TestScenarioBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	errs := obs.Default.Counter("serve.errors")
	before := errs.Value()
	body := scenarioBody("table1", `"plans":["`+strings.Repeat("x", maxBodyBytes)+`"]`)
	resp, b := postScenario(t, ts.URL, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%.200s)", resp.StatusCode, b)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Errorf("error body %.200q does not name the limit", b)
	}
	if got := errs.Value() - before; got != 1 {
		t.Errorf("serve.errors rose by %d, want 1", got)
	}
	if hits, misses, coalesced, _ := s.results.Counters(); hits+misses+coalesced != 0 {
		t.Errorf("an oversized body reached the result cache")
	}
}

// TestRunClosesSlowHeaderClients: a client that stalls part way
// through its request headers, or through its body, has its connection
// closed once readTimeout passes; a run that outlasts readTimeout still
// answers 200, to its leader and to a follower whose request context
// would have cancelled its wait.
func TestRunClosesSlowHeaderClients(t *testing.T) {
	saved := readTimeout
	readTimeout = 100 * time.Millisecond
	t.Cleanup(func() { readTimeout = saved })
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	s, err := New(context.Background(), Config{
		Scenario:    leodivide.ScenarioConfig{RunConfig: base},
		Dataset:     sharedDataset(t),
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln, 5*time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})

	for _, tc := range []struct{ name, partial string }{
		{"header", "POST /v1/scenario HTTP/1.1\r\nHost: leodivide\r\n"},
		{"body", "POST /v1/scenario HTTP/1.1\r\nHost: leodivide\r\nContent-Length: 100\r\n\r\n" + `{"schema":`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, tc.partial); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("the server kept a slow-%s connection open for 10s", tc.name)
			}
			if elapsed := time.Since(start); elapsed < readTimeout/2 {
				t.Errorf("connection closed after %v, before the %v read timeout", elapsed, readTimeout)
			}
		})
	}

	t.Run("run past the deadline", func(t *testing.T) {
		// Hold the only admission slot so the leader's run, and the
		// follower coalesced on it, outlast readTimeout.
		if err := s.gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, misses0, coalesced0, _ := s.results.Counters()
		url := "http://" + ln.Addr().String()
		codes := make(chan int, 2)
		post := func() {
			resp, err := http.Post(url+"/v1/scenario", "application/json", strings.NewReader(scenarioBody("fig1", "")))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}
		go post()
		waitCounters(s.results, func(_, misses, _ int64) bool { return misses == misses0+1 })
		go post()
		waitCounters(s.results, func(_, _, coalesced int64) bool { return coalesced == coalesced0+1 })
		time.Sleep(3 * readTimeout)
		s.gate.Release()
		for i := 0; i < 2; i++ {
			if code := <-codes; code != http.StatusOK {
				t.Errorf("a run past the read deadline answered %d, want 200", code)
			}
		}
	})
}
