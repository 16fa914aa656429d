// Package serve is the scenario-query serving layer behind
// `leodivide serve`: an HTTP/JSON API answering what-if requests
// against one shared immutable in-memory Dataset.
//
// Production concerns are the point of the package:
//
//   - Every response is memoized in a bounded LRU cache keyed by the
//     scenario's canonical key (ScenarioConfig.CanonicalKey). The
//     determinism contract — a result is a pure function of the
//     scenario — is what makes a cached response exactly as good as a
//     fresh run, byte for byte.
//   - Identical in-flight queries coalesce (singleflight): one
//     experiment run feeds every concurrent requester of the same key.
//   - Experiment runs pass a bounded admission gate (par.Gate), so a
//     burst of distinct scenarios cannot oversubscribe the worker
//     pools each run fans out on.
//   - Request counts, latency histograms and cache traffic record into
//     internal/obs, so the CLI's -debug-addr endpoint (and the
//     server's own /metrics route) expose them live.
//   - Run drains connections on context cancellation (the CLI wires
//     SIGTERM/SIGINT to that context), so in-flight queries finish
//     before the process exits. A run still going, or still waiting
//     for admission, when the drain window expires is cancelled: its
//     requester and every follower coalesced on it get a 503.
//
// A request that names no region is answered on the server's base
// region — the geography of its startup dataset — exactly as if it
// named that region: same canonical key, same cached body. Only a
// request naming a different region reaches a sibling geography,
// generated lazily at the server's (seed, scale).
//
// Wire contract (schema leodivide-serve/v3, the only one accepted; a
// body declaring any other schema is a 400):
//
//	POST /v1/scenario       {"schema":"leodivide-serve/v3","experiment":"xconst","region":"brazil-rural",...}
//	GET  /v1/experiments
//	GET  /v1/constellations
//	GET  /v1/regions
//	GET  /v1/stats
//	GET  /healthz
//	GET  /metrics
//
// The X-Leodivide-Cache response header reports hit, miss or coalesced;
// the body is byte-identical across all three for the same scenario.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"leodivide"
	"leodivide/internal/constellation"
	"leodivide/internal/memo"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/region"
	"leodivide/internal/spectrum"
)

// Serving-layer observability (see internal/obs): request counts and
// latency, cache traffic, failed response writes, experiment admission
// wait, and the size of each response body a cache miss encodes. The cache counters count the same events as the
// result memo's own Counters, summed over every server in the process.
var (
	metricRequests    = obs.Default.Counter("serve.requests")
	metricErrors      = obs.Default.Counter("serve.errors")
	metricEvictions   = obs.Default.Counter("serve.cache.evictions")
	metricWriteErrors = obs.Default.Counter("serve.write_errors")
	metricReqSecs     = obs.Default.Histogram("serve.request.seconds", obs.DurationBuckets)
	metricRunSecs     = obs.Default.Histogram("serve.run.seconds", obs.DurationBuckets)
	metricWaitSecs    = obs.Default.Histogram("serve.admission_wait.seconds", obs.DurationBuckets)
	metricRespBytes   = obs.Default.Histogram("serve.response.bytes", obs.SizeBuckets)

	// metricCache is indexed by memo.Status.
	metricCache = [...]*obs.Counter{
		memo.Miss:      obs.Default.Counter("serve.cache.misses"),
		memo.Hit:       obs.Default.Counter("serve.cache.hits"),
		memo.Coalesced: obs.Default.Counter("serve.cache.coalesced"),
	}
)

// CacheHeader is the response header naming how the query was served:
// "hit", "miss" or "coalesced".
const CacheHeader = "X-Leodivide-Cache"

// Config describes a Server.
type Config struct {
	// Scenario pins the dataset identity (seed, scale, parallelism,
	// calibration default) every query runs against. Its Experiment
	// field is ignored — requests name their own.
	Scenario leodivide.ScenarioConfig
	// Dataset optionally supplies a pre-generated dataset matching
	// Scenario (including its region); nil makes New generate it.
	// Queries naming a different region generate that geography lazily
	// at the same (seed, scale) identity on first use.
	Dataset *leodivide.Dataset
	// CacheEntries bounds the memoized result cache (default 1024).
	CacheEntries int
	// CacheBytes bounds the cache's total key+value bytes. 0 selects
	// the default (256 MiB); negative means unbounded by size. Without
	// a byte bound a handful of large-scale scenario responses can
	// occupy far more memory than the entry count suggests.
	CacheBytes int64
	// MaxInflight bounds concurrently running experiments (0 = one per
	// CPU, via par.Workers).
	MaxInflight int
}

// DefaultCacheBytes is the cache byte bound when Config.CacheBytes is 0.
const DefaultCacheBytes int64 = 256 << 20

// maxBodyBytes bounds a POST /v1/scenario body; a larger one is a 413.
// A valid request is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Run's connection limits: a client gets readTimeout to send a whole
// request, headers and body, so a client that stalls mid-request cannot
// hold a connection or a handler open, and a keep-alive connection with
// no request in flight closes after idleTimeout. A handler still
// running when readTimeout passes answers as usual: the limit bounds
// the read, not the run. Tests shorten them; nothing else writes them.
var (
	readTimeout = 10 * time.Second
	idleTimeout = 2 * time.Minute
)

// Server answers scenario queries against one shared immutable dataset.
type Server struct {
	ds   *leodivide.Dataset
	base leodivide.ScenarioConfig
	gate *par.Gate
	mux  *http.ServeMux

	// results maps canonical key → response bytes; its counters back
	// the cache fields of /v1/stats. maxBytes is its byte bound
	// (0 = unbounded by size).
	results  *memo.Memo[[]byte]
	maxBytes int64

	// baseRegion is the geography of the shared startup dataset;
	// regions holds the sibling geographies, generated lazily at the
	// same (seed, scale) identity the first time a query names them.
	// Concurrent first queries for one region share one generation;
	// queries for different regions do not wait on each other.
	baseRegion string
	regions    *memo.Memo[*leodivide.Dataset]

	// Server-local request and error counts backing /v1/stats (the obs
	// counters are process-global and shared across servers).
	requests, errs atomic.Int64

	// life bounds every result fill. A fill answers all the requests
	// coalesced on its key, so no one client's context may cancel it;
	// Run cancels life (endLife) once its drain is over instead, so a
	// fill cannot outlive the server.
	life    context.Context
	endLife context.CancelFunc
}

// New builds a server: validates the base scenario, generates the
// shared dataset (unless cfg.Dataset supplies it) and wires the routes.
// The context cancels dataset generation.
func New(ctx context.Context, cfg Config) (*Server, error) {
	base := cfg.Scenario
	base.Experiment = ""
	if err := base.RunConfig.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ds := cfg.Dataset
	if ds == nil {
		var err error
		if ds, err = base.Generate(ctx); err != nil {
			return nil, fmt.Errorf("serve: generate dataset: %w", err)
		}
	}
	baseRegion := base.Region
	if baseRegion == "" {
		baseRegion = region.DefaultKey
	}
	// A serving layer with no cache at all would defeat the point, so a
	// negative entry bound still keeps one entry.
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = 1024
	case entries < 0:
		entries = 1
	}
	bytes := cfg.CacheBytes
	switch {
	case bytes == 0:
		bytes = DefaultCacheBytes
	case bytes < 0:
		bytes = 0 // memo convention: 0 = no byte bound
	}
	life, endLife := context.WithCancel(context.Background())
	s := &Server{
		ds:         ds,
		base:       base,
		gate:       par.NewGate(cfg.MaxInflight),
		mux:        http.NewServeMux(),
		results:    newResultMemo(entries, bytes),
		maxBytes:   bytes,
		baseRegion: baseRegion,
		regions:    memo.New(memo.Options[*leodivide.Dataset]{MaxEntries: len(region.Regions())}),
		life:       life,
		endLife:    endLife,
	}
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/constellations", s.handleConstellations)
	s.mux.HandleFunc("GET /v1/regions", s.handleRegions)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// newResultMemo builds the result cache: canonical key → response
// bytes, bounded by entry count and by key+body bytes (maxBytes 0 = no
// byte bound), with every eviction counted in serve.cache.evictions.
func newResultMemo(entries int, maxBytes int64) *memo.Memo[[]byte] {
	return memo.New(memo.Options[[]byte]{
		MaxEntries: entries,
		MaxBytes:   maxBytes,
		Size:       func(b []byte) int64 { return int64(len(b)) },
		OnEvict:    metricEvictions.Inc,
	})
}

// Dataset returns the shared dataset the server answers against.
func (s *Server) Dataset() *leodivide.Dataset { return s.ds }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes immediately, in-flight requests get up to drain
// to finish, and then every fill still running is cancelled, so its
// requests answer 503. A nil error means a clean start-to-drain
// lifecycle. A Server runs once: its fills stay cancelled after Run.
func (s *Server) Run(ctx context.Context, ln net.Listener, drain time.Duration) error {
	// With ReadHeaderTimeout zero, net/http bounds the headers by
	// ReadTimeout too.
	srv := &http.Server{Handler: s.mux, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(dctx)
		s.endLife()
		shutdownErr <- err
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}

// Response is the JSON body of a successful scenario query. Key is the
// scenario's canonical cache key; Result is the experiment's result
// exactly as the registry returned it.
type Response struct {
	Schema     string  `json:"schema"`
	Key        string  `json:"key"`
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Result     any     `json:"result"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// httpError carries a status code through the resolve path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// resolve decodes a request body with the same strict parser the CLI's
// -scenario flag uses (unknown fields, trailing data and an unsupported
// schema are all 400s) and merges it into the server's base scenario
// with ScenarioRequest.Apply. Only the serving-specific rules live
// here: the body must declare its schema, a seed or scale other than
// the server dataset's is a 409, and an omitted region inherits the
// server's base region, just as an omitted seed or scale inherits the
// dataset's. A named region is a knob, not a dataset-identity
// conflict: the server generates sibling geographies lazily at its own
// (seed, scale).
//
// Resolving builds no model: names are checked against the
// package-level experiment, constellation and region tables.
func (s *Server) resolve(body []byte) (leodivide.ScenarioConfig, error) {
	req, err := leodivide.ParseScenarioRequest(body)
	if err != nil {
		return leodivide.ScenarioConfig{}, err
	}
	if req.Schema == "" {
		// The HTTP contract is versioned: unlike the CLI convenience
		// form, a request must declare which schema it speaks.
		return leodivide.ScenarioConfig{}, fmt.Errorf("unsupported schema %q (want %q)", req.Schema, leodivide.ScenarioSchema)
	}
	if req.Seed != nil && *req.Seed != s.base.Seed {
		return leodivide.ScenarioConfig{}, &httpError{http.StatusConflict,
			fmt.Sprintf("seed %d does not match the server dataset (%s)", *req.Seed, s.base.RunConfig)}
	}
	//lint:ignore floatcmp dataset identity is exact, not arithmetic: a request either names the server's scale bit-for-bit or targets a different dataset
	if req.Scale != nil && *req.Scale != s.base.Scale {
		return leodivide.ScenarioConfig{}, &httpError{http.StatusConflict,
			fmt.Sprintf("scale %v does not match the server dataset (%s)", *req.Scale, s.base.RunConfig)}
	}
	if req.Region == "" {
		req.Region = s.baseRegion
	}
	return req.Apply(s.base)
}

// writeBody writes one complete response. A failed write means the
// client went away; nothing can be sent back, so it is counted in
// serve.write_errors instead.
func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		metricWriteErrors.Inc()
	}
}

// writeJSON writes v as a JSON response, newline-terminated.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	writeBody(w, code, "application/json", append(body, '\n'))
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	metricErrors.Inc()
	writeJSON(w, code, errorResponse{Error: msg})
}

// fail answers a scenario request with an error: the status an
// httpError carries, 400 otherwise.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errs.Add(1)
	code := http.StatusBadRequest
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	writeJSONError(w, code, err.Error())
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	metricRequests.Inc()
	//lint:ignore detrand wall-clock feeds the request latency histogram only, never the response
	start := time.Now()
	defer metricReqSecs.ObserveSince(start)

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			err = &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		s.fail(w, fmt.Errorf("read request body: %w", err))
		return
	}
	cfg, err := s.resolve(data)
	if err != nil {
		s.fail(w, err)
		return
	}
	key, err := cfg.CanonicalKey()
	if err != nil {
		s.fail(w, err)
		return
	}

	// The leader's fill answers every follower coalesced on its key, so
	// it runs under the server's lifetime, not the leader's client: a
	// leader whose client goes away still finishes the run its
	// followers wait for. A panic in the run becomes the fill's error,
	// so the leader and its followers answer 500 and the key stays
	// uncached.
	body, status, err := s.results.Do(r.Context(), key, func() (body []byte, err error) {
		defer func() {
			if p := recover(); p != nil {
				perr, ok := p.(error)
				if !ok {
					perr = fmt.Errorf("%v", p)
				}
				err = fmt.Errorf("experiment %s panicked: %w", cfg.Experiment, perr)
			}
		}()
		return s.runScenario(s.life, cfg, key)
	})
	metricCache[status].Inc()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, &httpError{code, err.Error()})
		return
	}
	w.Header().Set(CacheHeader, status.String())
	writeBody(w, http.StatusOK, "application/json", body)
}

// runScenario runs one experiment under the admission gate and encodes
// the response bytes that the cache will hold. The encoding happens
// once, here — hits and coalesced followers replay the identical bytes.
func (s *Server) runScenario(ctx context.Context, cfg leodivide.ScenarioConfig, key string) ([]byte, error) {
	//lint:ignore detrand wall-clock feeds the admission-wait histogram only, never the response
	waitStart := time.Now()
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	metricWaitSecs.ObserveSince(waitStart)

	m := cfg.BuildModel()
	exp, ok := m.ExperimentByName(cfg.Experiment)
	if !ok {
		// Validate checked the registry already; losing the name here
		// would be a registry bug, not a client error.
		return nil, fmt.Errorf("experiment %q vanished from the registry", cfg.Experiment)
	}
	n := cfg.Normalized()
	ds, err := s.datasetFor(ctx, n.Region)
	if err != nil {
		return nil, err
	}
	//lint:ignore detrand wall-clock feeds the run-duration histogram only, never the response
	runStart := time.Now()
	v, err := exp.Run(ctx, ds)
	if err != nil {
		return nil, err
	}
	metricRunSecs.ObserveSince(runStart)
	body, err := encodeResponse(Response{
		Schema:     leodivide.ScenarioSchema,
		Key:        key,
		Experiment: n.Experiment,
		Seed:       n.Seed,
		Scale:      n.Scale,
	}, v)
	if err != nil {
		return nil, err
	}
	metricRespBytes.Observe(float64(len(body)))
	return body, nil
}

// encodeResponse returns the bytes of json.Marshal(r) with r.Result
// set to v. The envelope is marshalled with a nil Result, which, as
// Response's last field, ends the object in `null}`; the result is
// appended in place of that null by leodivide.AppendResultJSON, which
// writes a Figure 3 result without reflection. Encoding the envelope
// by hand would save a microsecond and copy encoding/json's string
// escaping rules; the result is where the time goes.
func encodeResponse(r Response, v any) ([]byte, error) {
	r.Result = nil
	head, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	body, err := leodivide.AppendResultJSON(head[:len(head)-len("null}")], v)
	if err != nil {
		return nil, err
	}
	return append(body, '}'), nil
}

// datasetFor resolves the dataset a query's region runs against: the
// shared startup dataset for the base region, a lazily generated (and
// then memoized) sibling geography otherwise. Concurrent first queries
// for one region pay for a single generation; a failed generation is
// not kept, so the next query retries it.
func (s *Server) datasetFor(ctx context.Context, regionKey string) (*leodivide.Dataset, error) {
	if regionKey == "" || regionKey == s.baseRegion {
		return s.ds, nil
	}
	ds, _, err := s.regions.Do(ctx, regionKey, func() (*leodivide.Dataset, error) {
		sc := s.base
		sc.Region = regionKey
		ds, err := sc.Generate(ctx)
		if err != nil {
			return nil, fmt.Errorf("generate region %q dataset: %w", regionKey, err)
		}
		return ds, nil
	})
	return ds, err
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []experimentInfo
	for _, e := range s.base.BuildModel().Experiments() {
		out = append(out, experimentInfo{Name: e.Name, Description: e.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// constellationInfo is one row of GET /v1/constellations: the declared
// spec a scenario's "constellation" selector names, with its default
// cost inputs under the same field names the scenario overrides use.
type constellationInfo struct {
	Name             string  `json:"name"`
	DisplayName      string  `json:"display_name"`
	Shells           int     `json:"shells"`
	Satellites       int     `json:"satellites"`
	UTDownlinkMHz    float64 `json:"ut_downlink_mhz"`
	MaxBeamsPerCell  int     `json:"max_beams_per_cell"`
	CellCapacityGbps float64 `json:"cell_capacity_gbps"`
	CostSatelliteUSD float64 `json:"cost_sat_usd"`
	CostLifeYears    float64 `json:"cost_life_years"`
	CostTerminalUSD  float64 `json:"cost_terminal_usd"`
}

func (s *Server) handleConstellations(w http.ResponseWriter, r *http.Request) {
	var out []constellationInfo
	for _, sys := range constellation.Systems() {
		out = append(out, constellationInfo{
			Name:             sys.Key,
			DisplayName:      sys.Name,
			Shells:           len(sys.Shells),
			Satellites:       sys.TotalSatellites(),
			UTDownlinkMHz:    spectrum.UTDownlinkMHzOf(sys.Bands),
			MaxBeamsPerCell:  sys.MaxBeamsPerCell,
			CellCapacityGbps: sys.CellCapacityGbps,
			CostSatelliteUSD: sys.Cost.AllInSatelliteUSD(),
			CostLifeYears:    sys.Cost.DesignLifeYears,
			CostTerminalUSD:  sys.Cost.TerminalSubsidyUSD,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// regionInfo is one row of GET /v1/regions: one declared demand/income
// geography a scenario's "region" selector names.
type regionInfo struct {
	Name        string `json:"name"`
	DisplayName string `json:"display_name"`
	Description string `json:"description"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	var out []regionInfo
	for _, reg := range region.Regions() {
		out = append(out, regionInfo{
			Name:        reg.Key(),
			DisplayName: reg.Name(),
			Description: reg.Description(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Stats is the JSON body of GET /v1/stats: server-local traffic and
// cache shape since startup.
//
// Requests counts every POST /v1/scenario and Errors every one that
// got a non-2xx answer. Hits, Misses, Coalesced and Evictions are the
// result cache's own counters: a request that reaches the cache counts
// once, as the status it got, whether or not its run succeeds. A run
// that fails is therefore a miss and an error, and each request that
// coalesced onto it is coalesced and an error. A request rejected
// before the cache (bad body, bad knob, dataset mismatch) counts only
// in Requests and Errors.
type Stats struct {
	Requests     int64 `json:"requests"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Errors       int64 `json:"errors"`
	CacheEntries int   `json:"cache_entries"`
	// CacheBytes is the cached key+value footprint; CacheMaxBytes is
	// its bound (0 = unbounded by size).
	CacheBytes    int64 `json:"cache_bytes"`
	CacheMaxBytes int64 `json:"cache_max_bytes"`
	Evictions     int64 `json:"evictions"`
	InflightCap   int   `json:"inflight_cap"`
	Inflight      int   `json:"inflight"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, coalesced, evictions := s.results.Counters()
	writeJSON(w, http.StatusOK, Stats{
		Requests:      s.requests.Load(),
		Hits:          hits,
		Misses:        misses,
		Coalesced:     coalesced,
		Errors:        s.errs.Load(),
		CacheEntries:  s.results.Len(),
		CacheBytes:    s.results.Bytes(),
		CacheMaxBytes: s.maxBytes,
		Evictions:     evictions,
		InflightCap:   s.gate.Cap(),
		Inflight:      s.gate.InUse(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := obs.Default.Snapshot().WriteText(w); err != nil {
		metricWriteErrors.Inc()
	}
}
