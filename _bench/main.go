// Command leodivide-bench is the repository benchmark. It drives the
// offline reproduction and the scenario-query service through three
// workloads (reproduce, serve-hit, serve-miss), verifies every
// operation, and prints one JSON result line: end-to-end metrics on an
// untraced run, per-layer metrics on a traced one. README.md in this
// directory explains the workloads and how to read the output.
//
//	bash _bench/run.sh --workload serve-hit --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// envRecord travels with every result so that runs from different
// machines or settings are never compared by mistake.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Samples    int     `json:"samples"`
	SetupRuns  int     `json:"setup_runs"`
	StealPct   float64 `json:"steal_pct"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leodivide-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set up once in this fresh process, print \"ready <cells>\" and exit (one setup_s sample)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "leodivide-bench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg, err := newConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "leodivide-bench:", err)
		return 2
	}
	ctx := context.Background()
	if *setupOnly {
		cells, err := newWorkload(cfg).setup(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "leodivide-bench: setup:", err)
			return 1
		}
		// The parent stops its setup_s clock on this line; the process
		// exits straight after, without tearing the workload down.
		fmt.Fprintf(stdout, "ready %d\n", cells)
		return 0
	}

	res, stats, err := runBenchmark(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "leodivide-bench:", err)
		return 1
	}
	env := envRecord{
		Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.scale,
		Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Samples: stats.samples, SetupRuns: cfg.setupRuns, StealPct: stats.stealPct,
	}
	envLine, err := json.Marshal(map[string]envRecord{"env": env})
	if err != nil {
		fmt.Fprintln(stderr, "leodivide-bench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "leodivide-bench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	return 0
}
