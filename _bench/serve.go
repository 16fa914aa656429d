package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leodivide"
	"leodivide/internal/constellation"
	"leodivide/internal/obs"
	"leodivide/internal/serve"
)

// missCacheEntries bounds the serve-miss result cache far below its
// 480-key cycle, so every timed request misses.
const missCacheEntries = 16

// serveKey is one scenario of a serve mix: the request, its body on the
// wire and the response body the library says it must get back.
type serveKey struct {
	req  leodivide.ScenarioRequest
	body []byte
	want []byte
}

func newKey(req leodivide.ScenarioRequest) serveKey {
	req.Schema = leodivide.ScenarioSchema
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a ScenarioRequest of plain fields always encodes
	}
	return serveKey{req: req, body: body}
}

// hitMix is every registry experiment under loadgen's eight knob
// variants: the default, two oversubscription caps, one affordability
// share, two other constellations and the two sibling regions.
func hitMix() []serveKey {
	variants := []leodivide.ScenarioRequest{
		{},
		{MaxOversub: 25},
		{MaxOversub: 30},
		{AffordShare: 0.025},
		{Constellation: "kuiper"},
		{Constellation: "oneweb"},
		{Region: "brazil-rural"},
		{Region: "taipei-dense"},
	}
	var keys []serveKey
	for _, v := range variants {
		for _, name := range experimentNames() {
			v.Experiment = name
			keys = append(keys, newKey(v))
		}
	}
	return keys
}

// missExperiment reports whether the serve-miss mix includes an
// experiment: all but busyhour and xregion, which would bring dataset
// generation and the stagger kernel into the request path.
func missExperiment(name string) bool { return name != "busyhour" && name != "xregion" }

// missMix is 12 experiments × 4 constellations × 5 oversubscription
// caps × 2 affordability shares: 480 distinct keys on the base region.
func missMix() []serveKey {
	var keys []serveKey
	for _, name := range experimentNames() {
		if !missExperiment(name) {
			continue
		}
		for _, sys := range constellation.SystemNames() {
			for _, oversub := range []float64{10, 15, 20, 25, 30} {
				for _, share := range []float64{0.02, 0.03} {
					keys = append(keys, newKey(leodivide.ScenarioRequest{
						Experiment: name, Constellation: sys, MaxOversub: oversub, AffordShare: share,
					}))
				}
			}
		}
	}
	return keys
}

// serveWorkload drives POST /v1/scenario on an in-process server over
// loopback with a closed loop of clients: each sends the next key of a
// seeded cyclic order and waits for the reply before sending again.
type serveWorkload struct {
	hit          bool
	seed         int64
	scale        float64
	cacheEntries int
	keys         []serveKey
	order        []int
	next         atomic.Int64

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	handler timedHandler
}

func newServe(cfg config, hit bool) *serveWorkload {
	s := &serveWorkload{hit: hit, seed: cfg.seed, scale: cfg.scale, cacheEntries: cfg.cacheEntries}
	if hit {
		s.keys = hitMix()
	} else {
		s.keys = missMix()
		if s.cacheEntries == 0 {
			s.cacheEntries = missCacheEntries
		}
	}
	s.order = rand.New(rand.NewSource(cfg.seed)).Perm(len(s.keys))
	return s
}

func (s *serveWorkload) base() leodivide.ScenarioConfig {
	return leodivide.ScenarioConfig{RunConfig: leodivide.RunConfig{Seed: s.seed, Scale: s.scale}}
}

func (s *serveWorkload) wantHeader() string {
	if s.hit {
		return "hit"
	}
	return "miss"
}

// setup starts the server on a loopback listener and warms it with one
// pass over every key: the result cache (serve-hit), the sibling region
// datasets and the stage memo are all filled before timing.
func (s *serveWorkload) setup(ctx context.Context) (int, error) {
	srv, err := serve.New(ctx, serve.Config{Scenario: s.base(), CacheEntries: s.cacheEntries})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	s.srv = srv
	s.handler.next = srv.Handler()
	s.hs = &http.Server{Handler: &s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	n := int64(len(s.keys))
	warm := s.loop(ctx, func(i int64) bool { return i >= n }, false)
	if warm.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	return srv.Dataset().NumCells(), nil
}

// prepare builds every key's expected body straight from the library:
// the same scenario merge, experiment run and response encoding the
// server performs, on datasets of its own.
func (s *serveWorkload) prepare(ctx context.Context, corrupt bool) error {
	base := s.base()
	datasets := map[string]*leodivide.Dataset{}
	for i := range s.keys {
		k := &s.keys[i]
		cfg, err := k.req.Apply(base)
		if err != nil {
			return err
		}
		n := cfg.Normalized()
		ds, ok := datasets[n.Region]
		if !ok {
			if ds, err = cfg.Generate(ctx); err != nil {
				return err
			}
			datasets[n.Region] = ds
		}
		key, err := cfg.CanonicalKey()
		if err != nil {
			return err
		}
		exp, ok := cfg.BuildModel().ExperimentByName(n.Experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q", n.Experiment)
		}
		v, err := exp.Run(ctx, ds)
		if err != nil {
			return err
		}
		if k.want, err = json.Marshal(serve.Response{
			Schema: leodivide.ScenarioSchema, Key: key, Experiment: n.Experiment,
			Seed: n.Seed, Scale: n.Scale, Result: v,
		}); err != nil {
			return err
		}
	}
	if got, want := s.srv.Dataset().NumCells(), datasets[base.Normalized().Region].NumCells(); got != want {
		return guardf("gen.cells: the server made %d cells for seed %d, the library %d", got, s.seed, want)
	}
	if corrupt {
		for i := range s.keys {
			s.keys[i].want[0] ^= 0xff
		}
	}
	return nil
}

// clientStats is what the closed loop observed.
type clientStats struct {
	latencies []float64 // ms, verified requests only
	attempted int64
	failed    int64
}

// loop runs the closed loop until stop(i) is true for the next request
// index i. With verify set, a request counts only if its status, cache
// header and body bytes are exactly what the workload expects.
func (s *serveWorkload) loop(ctx context.Context, stop func(i int64) bool, verify bool) clientStats {
	per := make([]clientStats, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *clientStats) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := s.next.Add(1) - 1
				if stop(i) {
					return
				}
				k := &s.keys[s.order[i%int64(len(s.keys))]]
				start := time.Now()
				status, header, err := s.post(ctx, k.body, &buf)
				lat := time.Since(start)
				st.attempted++
				if err != nil || status != http.StatusOK ||
					(verify && (header != s.wantHeader() || !bytes.Equal(buf.Bytes(), k.want))) {
					st.failed++
					continue
				}
				st.latencies = append(st.latencies, ms(lat))
			}
		}(&per[c])
	}
	wg.Wait()
	var out clientStats
	for _, st := range per {
		out.latencies = append(out.latencies, st.latencies...)
		out.attempted += st.attempted
		out.failed += st.failed
	}
	return out
}

func (s *serveWorkload) post(ctx context.Context, body []byte, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/scenario", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get(serve.CacheHeader), nil
}

func (s *serveWorkload) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stageCounters reads the server dataset's stage memo: lookups that
// hit, and all lookups.
func (s *serveWorkload) stageCounters() (hits, lookups, evictions int64) {
	h, m, c, e := s.srv.Dataset().Distribution().Stages().Counters()
	return h, h + m + c, e
}

func (s *serveWorkload) window(ctx context.Context, d time.Duration, tr *tracer) (windowResult, error) {
	st0, err := s.stats(ctx)
	if err != nil {
		return windowResult{}, err
	}
	h0, l0, e0 := s.stageCounters()
	var adm0 obs.HistogramSnapshot
	if tr != nil {
		adm0 = obs.Default.Snapshot().Histograms["serve.admission_wait.seconds"]
		s.handler.rec.Store(&tr.handler)
	}
	start := time.Now()
	deadline := start.Add(d)
	cs := s.loop(ctx, func(int64) bool { return !time.Now().Before(deadline) }, true)
	elapsed := time.Since(start)
	s.handler.rec.Store(nil)
	st1, err := s.stats(ctx)
	if err != nil {
		return windowResult{}, err
	}
	h1, l1, e1 := s.stageCounters()

	requests := float64(st1.Requests - st0.Requests)
	hitRatio := ratio(float64(st1.Hits-st0.Hits), requests)
	stageHitRatio := ratio(float64(h1-h0), float64(l1-l0))
	switch {
	case s.hit && hitRatio < 0.99:
		return windowResult{}, guardf("serve-hit result-cache hit ratio %.4f < 0.99", hitRatio)
	case !s.hit && hitRatio > 0.01:
		return windowResult{}, guardf("serve-miss result-cache hit ratio %.4f > 0.01", hitRatio)
	case !s.hit && stageHitRatio < 0.99:
		return windowResult{}, guardf("serve-miss stage hit ratio %.4f < 0.99 (%d lookups)", stageHitRatio, l1-l0)
	}

	res := windowResult{
		latencies: cs.latencies,
		attempted: cs.attempted,
		failed:    cs.failed,
		opsPerS:   float64(len(cs.latencies)) / elapsed.Seconds(),
		layers:    metrics{},
	}
	if tr == nil {
		return res, nil
	}
	m := res.layers
	ops := float64(len(cs.latencies))
	m.set("gen.cells", float64(s.srv.Dataset().NumCells()), "count")
	m.set("serve.hit_ratio", hitRatio, "ratio")
	m.set("serve.evictions_per_req", ratio(float64(st1.Evictions-st0.Evictions), requests), "count")
	m.set("serve.cache_mb", float64(st1.CacheBytes)/(1<<20), "MB")
	m.set("stage.hits", float64(h1-h0)/ops, "count")
	m.set("stage.misses", float64((l1-l0)-(h1-h0))/ops, "count")
	m.set("stage.evictions", float64(e1-e0)/ops, "count")
	m.set("stage.hit_ratio", stageHitRatio, "ratio")

	handler := tr.handler.sorted()
	m.set("serve.handler_ms_p50", quantile(handler, 0.50), "ms")
	m.set("serve.handler_ms_p99", quantile(handler, 0.99), "ms")
	m.set("serve.transport_ms_p50", quantile(sortedCopy(cs.latencies), 0.50)-quantile(handler, 0.50), "ms")
	var runs []float64
	for _, sp := range tr.spans.Spans() {
		if sp.Parent == nil && strings.HasPrefix(sp.Name, "experiment.") {
			runs = append(runs, ms(sp.Duration))
		}
	}
	runs = sortedCopy(runs)
	m.set("serve.run_ms_p50", quantile(runs, 0.50), "ms")
	m.set("serve.run_ms_p99", quantile(runs, 0.99), "ms")
	adm := histDelta(obs.Default.Snapshot().Histograms["serve.admission_wait.seconds"], adm0)
	m.set("serve.admission_wait_ms_p99", 1000*adm.Quantile(0.99), "ms")
	return res, nil
}

func (s *serveWorkload) mix() [][]byte { return bodies(s.keys) }

func bodies(keys []serveKey) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = k.body
	}
	return out
}

func (s *serveWorkload) close() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	s.client.CloseIdleConnections()
	return err
}

// histDelta is the histogram of the observations made between two
// snapshots of one histogram. The maximum is the later snapshot's.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	d.Counts = append([]int64(nil), after.Counts...)
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// timedHandler times each request through the server's handler while a
// traced window has a sampler installed, and is a plain pass-through
// otherwise.
type timedHandler struct {
	next http.Handler
	rec  atomic.Pointer[sampler]
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.rec.Load()
	if s == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	s.add(ms(time.Since(start)))
}

// sampler collects values from concurrent goroutines.
type sampler struct {
	mu     sync.Mutex
	values []float64
}

func (s *sampler) add(v float64) {
	s.mu.Lock()
	s.values = append(s.values, v)
	s.mu.Unlock()
}

func (s *sampler) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedCopy(s.values)
}
