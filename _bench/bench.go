package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leodivide"
	"leodivide/internal/golden"
	"leodivide/internal/obs"
	"leodivide/internal/region"
)

// benchScale is the dataset scale every workload runs at.
const benchScale = 0.25

// clients is the closed-loop client count of the serve workloads, and
// the connection bound of their shared transport: one per CPU of the
// reference machine, so load never outnumbers the cores.
const clients = 2

var workloadNames = []string{"reproduce", "serve-hit", "serve-miss"}

// config is one benchmark run. Tests shrink the scale and window and
// use the remaining fields to break the run on purpose.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	scale    float64
	// setupRuns is how many fresh child processes are timed for
	// setup_s; 0 times the run's own in-process set-up instead.
	setupRuns int
	// goldenRoot holds the golden corpora replayed before timing;
	// "" skips the pre-flight.
	goldenRoot string
	// settle is an untimed stretch of the workload run just before the
	// measured window, so the window starts from a steady state.
	settle time.Duration
	// traceDir receives the span dump of a traced run.
	traceDir string
	// cacheEntries overrides the serve result-cache bound (0 keeps the
	// workload's own).
	cacheEntries int
	// corrupt flips one byte of every reference before timing.
	corrupt bool
}

func newConfig(workload string, seed int64, window time.Duration, trace bool) (config, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == workload
	}
	if !known {
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return config{
		workload:   workload,
		seed:       seed,
		window:     window,
		trace:      trace,
		scale:      benchScale,
		setupRuns:  9,
		goldenRoot: "testdata",
		settle:     2 * time.Second,
		traceDir:   filepath.Join(".bench_build", "trace"),
	}, nil
}

// workload is one benchmark input set driven against the program.
type workload interface {
	// setup takes a fresh process to ready-to-time; it is exactly what
	// setup_s measures. It returns the cell count of the workload's
	// dataset, which must not vary for one seed.
	setup(ctx context.Context) (cells int, err error)
	// prepare builds the references every timed operation is checked
	// against, straight from the library.
	prepare(ctx context.Context, corrupt bool) error
	// window runs the measured loop for d. A non-nil tracer asks for
	// per-layer data. A traffic-guard breach is an error.
	window(ctx context.Context, d time.Duration, tr *tracer) (windowResult, error)
	// mix is the request bodies whose decode and key costs the traced
	// run probes.
	mix() [][]byte
	close() error
}

// windowResult is what one measured window observed.
type windowResult struct {
	latencies []float64 // ms, verified operations only
	attempted int64
	failed    int64
	// opsPerS is the verified-operation throughput.
	opsPerS float64
	// layers are the workload's own per-layer readings.
	layers metrics
}

func newWorkload(cfg config) workload {
	switch cfg.workload {
	case "reproduce":
		return newReproduce(cfg)
	case "serve-hit":
		return newServe(cfg, true)
	default:
		return newServe(cfg, false)
	}
}

// runStats describes a run's measured window for its env record.
type runStats struct {
	samples int
	// stealPct is the share of the machine's CPU time that the
	// hypervisor gave to other guests during the untraced window.
	stealPct float64
}

// guardError marks a workload that drifted from its definition: the run
// fails rather than reporting numbers for a different workload.
type guardError struct{ msg string }

func (e *guardError) Error() string { return "traffic guard: " + e.msg }

func guardf(format string, args ...any) error {
	return &guardError{fmt.Sprintf(format, args...)}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runBenchmark runs one workload: cold set-up, golden pre-flight,
// references, setup_s samples, the untraced window and, on a traced
// run, the traced window and the layer probes.
func runBenchmark(ctx context.Context, cfg config, logw io.Writer) (result, runStats, error) {
	w := newWorkload(cfg)
	defer func() {
		if err := w.close(); err != nil {
			fmt.Fprintln(logw, "leodivide-bench: close:", err)
		}
	}()
	var setupSpans *obs.RecordingCollector
	restore := func() {}
	if cfg.trace {
		setupSpans = &obs.RecordingCollector{}
		restore = obs.SetCollector(setupSpans)
	}
	start := time.Now()
	cells, err := w.setup(ctx)
	setupS := time.Since(start).Seconds()
	restore()
	if err != nil {
		return result{}, runStats{}, fmt.Errorf("setup: %w", err)
	}

	if cfg.goldenRoot != "" {
		if err := preflight(ctx, cfg.goldenRoot); err != nil {
			return result{}, runStats{}, err
		}
	}
	if err := w.prepare(ctx, cfg.corrupt); err != nil {
		return result{}, runStats{}, fmt.Errorf("references: %w", err)
	}
	if cfg.setupRuns > 0 {
		if setupS, err = childSetups(ctx, cfg, cells); err != nil {
			return result{}, runStats{}, err
		}
	}

	// Let the heap, GC pacing and caches settle after set-up and the
	// set-up children: this stretch runs the workload but is not timed.
	if _, err := w.window(ctx, cfg.settle, nil); err != nil {
		return result{}, runStats{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	steal0, total0 := stealJiffies()
	base, err := w.window(ctx, cfg.window, nil)
	steal1, total1 := stealJiffies()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, runStats{}, err
	}
	stats := runStats{
		samples:  len(base.latencies),
		stealPct: 100 * ratio(float64(steal1-steal0), float64(total1-total0)),
	}
	res := result{
		Correct:   base.failed == 0,
		Attempted: base.attempted,
		Failed:    base.failed,
		Metrics:   metrics{},
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, runStats{}, err
		}
		sorted := sortedCopy(base.latencies)
		res.Metrics.set("setup_s", setupS, "s")
		res.Metrics.set("ops_per_s", base.opsPerS, "1/s")
		res.Metrics.set("latency_p50_ms", quantile(sorted, 0.50), "ms")
		res.Metrics.set("latency_p90_ms", quantile(sorted, 0.90), "ms")
		res.Metrics.set("latency_p99_ms", quantile(sorted, 0.99), "ms")
		res.Metrics.set("peak_rss_mb", rss, "MB")
		return res, stats, nil
	}

	tr := newTracer()
	restore = obs.SetCollector(tr.spans)
	traced, err := w.window(ctx, cfg.window, tr)
	restore()
	if err != nil {
		return result{}, runStats{}, err
	}
	res.Correct = res.Correct && traced.failed == 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed

	m := res.Metrics
	for k, v := range traced.layers {
		m[k] = v
	}
	ops := float64(len(base.latencies))
	m.set("runtime.gc_per_op", float64(ms1.NumGC-ms0.NumGC)/ops, "count")
	m.set("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/ops, "MB")
	m.set("runtime.cpu_ms_per_op", (cpu1-cpu0).Seconds()*1000/ops, "ms")
	m.set("trace.overhead_pct", 100*(base.opsPerS-traced.opsPerS)/base.opsPerS, "%")
	if err := probe(ctx, cfg, w, tr, m); err != nil {
		return result{}, runStats{}, fmt.Errorf("layer probes: %w", err)
	}
	tr.spanMetrics(m, setupSpans, float64(len(traced.latencies)))
	if p50 := quantile(sortedCopy(traced.latencies), 0.5); cfg.workload == "reproduce" && p50 > 0 {
		covered := m["gen.dataset_ms"].Value
		for name, v := range m {
			if strings.HasPrefix(name, "exp.") && strings.HasSuffix(name, ".cold_ms") {
				covered += v.Value
			}
		}
		fmt.Fprintf(logw, "leodivide-bench: gen.dataset_ms + exp.*.cold_ms = %.1f%% of the traced latency_p50_ms\n", 100*covered/p50)
	}
	if err := tr.write(cfg, setupSpans, logw); err != nil {
		return result{}, runStats{}, err
	}
	stats.samples = len(traced.latencies)
	return res, stats, nil
}

// childSetups times cfg.setupRuns cold set-ups, each in a fresh copy of
// this process, from spawn to its ready line, and returns the median in
// seconds. Every child must report the parent's cell count.
func childSetups(ctx context.Context, cfg config, cells int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup_s: %w", err)
	}
	var samples []float64
	for i := 0; i < cfg.setupRuns; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("setup_s: %w", err)
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup_s: %w", err)
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		if _, err := io.Copy(io.Discard, out); err != nil && readErr == nil {
			readErr = err
		}
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup_s child: %w", err)
		}
		if readErr != nil {
			return 0, fmt.Errorf("setup_s child: %w", readErr)
		}
		var got int
		if _, err := fmt.Sscanf(line, "ready %d", &got); err != nil {
			return 0, fmt.Errorf("setup_s child printed %q", line)
		}
		if got != cells {
			return 0, guardf("gen.cells: a fresh process made %d cells for seed %d, this one %d", got, cfg.seed, cells)
		}
		samples = append(samples, elapsed.Seconds())
	}
	return median(samples), nil
}

// preflight replays the committed golden corpora — every registry
// experiment per (seed, scale) under root/golden, and findings per
// sibling region under root/golden-regions — and refuses to benchmark a
// tree whose results drifted.
func preflight(ctx context.Context, root string) error {
	replay := func(dir string, cc golden.Config, name string, v any) error {
		got, err := golden.Encode(v)
		if err != nil {
			return err
		}
		want, err := golden.ReadFile(golden.File(dir, cc.Seed, cc.Scale, name))
		if err != nil {
			return fmt.Errorf("golden pre-flight: %w", err)
		}
		diffs, err := golden.Compare(got, want, golden.Default())
		if err != nil {
			return err
		}
		if len(diffs) > 0 {
			return fmt.Errorf("golden pre-flight: %s at seed %d scale %g drifted: %s (and %d more)",
				name, cc.Seed, cc.Scale, diffs[0], len(diffs)-1)
		}
		return nil
	}
	type corpus struct {
		dir, region string
		experiments []string // nil = the whole registry
	}
	corpora := []corpus{{dir: filepath.Join(root, "golden"), region: region.DefaultKey}}
	for _, key := range region.Names() {
		if key != region.DefaultKey {
			corpora = append(corpora, corpus{filepath.Join(root, "golden-regions", key), key, []string{"findings"}})
		}
	}
	replayed := 0
	m := leodivide.NewModel()
	for _, c := range corpora {
		configs, err := golden.Configs(c.dir)
		if err != nil {
			return fmt.Errorf("golden pre-flight: %w", err)
		}
		for _, cc := range configs {
			ds, err := leodivide.GenerateDataset(ctx,
				leodivide.WithSeed(cc.Seed), leodivide.WithScale(cc.Scale), leodivide.WithRegion(c.region))
			if err != nil {
				return err
			}
			for _, e := range m.Experiments() {
				if c.experiments != nil && !slices.Contains(c.experiments, e.Name) {
					continue
				}
				v, err := e.Run(ctx, ds)
				if err != nil {
					return err
				}
				if err := replay(c.dir, cc, e.Name, v); err != nil {
					return err
				}
				replayed++
			}
		}
	}
	if replayed == 0 {
		return errors.New("golden pre-flight: no corpus under " + root)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealJiffies reads the machine's stolen and total CPU time from the
// first eight fields of /proc/stat's cpu line; both read 0 where that
// file is missing.
func stealJiffies() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak_rss_mb: no VmHWM in /proc/self/status")
}
