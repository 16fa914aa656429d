package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"leodivide"
)

// reproduceCycle is the number of distinct op seeds the reproduce
// workload cycles through; each has a serial reference.
const reproduceCycle = 8

// reproduce is the offline path. One op generates a dataset at a seed
// from a fixed cycle, then runs every registry experiment in registry
// order at default parallelism. A new dataset per op means its stage
// memo starts empty, so every op pays the full cold pipeline.
type reproduce struct {
	scale float64
	seeds []int64
	refs  map[int64]opRef
	next  int
}

// opRef is the serial (parallelism 1) reproduction for one seed.
type opRef struct {
	cells int
	sums  [][sha256.Size]byte // one per experiment, registry order
}

// opTiming is what a traced op records about itself.
type opTiming struct {
	gen          time.Duration
	genAllocs    uint64
	genBytes     uint64
	experiments  []time.Duration
	stageHits    int64
	stageMisses  int64
	stageEvicted int64
}

func newReproduce(cfg config) *reproduce {
	return &reproduce{scale: cfg.scale, seeds: seedCycle(cfg.seed, reproduceCycle)}
}

// seedCycle derives n dataset seeds from the workload seed.
func seedCycle(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// reproduceOp generates the dataset for seed and runs the whole
// registry on it. parallelism 0 is the library default; 1 is the serial
// reference path. A non-nil tm receives per-stage timings, and its
// allocation counts when mem is set.
func reproduceOp(ctx context.Context, seed int64, scale float64, parallelism int, tm *opTiming, mem bool) (*leodivide.Dataset, []any, error) {
	sc := leodivide.ScenarioConfig{RunConfig: leodivide.RunConfig{Seed: seed, Scale: scale, Parallelism: parallelism}}
	var ms0, ms1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	ds, err := sc.Generate(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("generate seed %d: %w", seed, err)
	}
	if tm != nil {
		tm.gen = time.Since(start)
	}
	if mem {
		runtime.ReadMemStats(&ms1)
		tm.genAllocs = ms1.Mallocs - ms0.Mallocs
		tm.genBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	exps := sc.BuildModel().Experiments()
	out := make([]any, len(exps))
	for i, e := range exps {
		t0 := time.Now()
		v, err := e.Run(ctx, ds)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on seed %d: %w", e.Name, seed, err)
		}
		if tm != nil {
			tm.experiments = append(tm.experiments, time.Since(t0))
		}
		out[i] = v
	}
	if tm != nil {
		tm.stageHits, tm.stageMisses, _, tm.stageEvicted = ds.Distribution().Stages().Counters()
	}
	return ds, out, nil
}

func digests(results []any) ([][sha256.Size]byte, error) {
	sums := make([][sha256.Size]byte, len(results))
	for i, v := range results {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		sums[i] = sha256.Sum256(b)
	}
	return sums, nil
}

func (r *reproduce) setup(ctx context.Context) (int, error) {
	ds, _, err := reproduceOp(ctx, r.seeds[0], r.scale, 0, nil, false)
	if err != nil {
		return 0, err
	}
	return ds.NumCells(), nil
}

func (r *reproduce) prepare(ctx context.Context, corrupt bool) error {
	r.refs = make(map[int64]opRef, len(r.seeds))
	for _, seed := range r.seeds {
		ds, out, err := reproduceOp(ctx, seed, r.scale, 1, nil, false)
		if err != nil {
			return err
		}
		sums, err := digests(out)
		if err != nil {
			return err
		}
		r.refs[seed] = opRef{cells: ds.NumCells(), sums: sums}
	}
	if corrupt {
		for _, ref := range r.refs {
			ref.sums[0][0] ^= 0xff
		}
	}
	return nil
}

func (r *reproduce) window(ctx context.Context, d time.Duration, tr *tracer) (windowResult, error) {
	var res windowResult
	var busy time.Duration
	names := experimentNames()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		seed := r.seeds[r.next%len(r.seeds)]
		r.next++
		var tm *opTiming
		if tr != nil {
			tm = &opTiming{}
		}
		start := time.Now()
		ds, out, err := reproduceOp(ctx, seed, r.scale, 0, tm, tr != nil)
		lat := time.Since(start)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		ref := r.refs[seed]
		if ds.NumCells() != ref.cells {
			return res, guardf("gen.cells: seed %d made %d cells, its reference %d", seed, ds.NumCells(), ref.cells)
		}
		sums, err := digests(out)
		if err != nil || !slices.Equal(sums, ref.sums) {
			res.failed++
			continue
		}
		res.latencies = append(res.latencies, ms(lat))
		busy += lat
		if tm != nil {
			tr.recordOp(names, tm)
		}
	}
	// A single goroutine runs the ops back to back, so throughput is
	// verified ops over the time spent inside them; the harness's own
	// result hashing stays out of it.
	res.opsPerS = ratio(float64(len(res.latencies)), busy.Seconds())
	res.layers = metrics{}
	if tr != nil {
		res.layers.set("gen.cells", float64(r.refs[r.seeds[0]].cells), "count")
	}
	return res, nil
}

// mix is the serve-hit request mix: reproduce has no requests of its
// own, so the decode and key probes use the service's canonical mix.
func (r *reproduce) mix() [][]byte { return bodies(hitMix()) }

func (r *reproduce) close() error { return nil }

// experimentNames lists the registry in registry order.
func experimentNames() []string {
	var names []string
	for _, e := range leodivide.NewModel().Experiments() {
		names = append(names, e.Name)
	}
	return names
}
