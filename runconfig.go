package leodivide

// RunConfig: the dataset identity and worker bound every surface
// shares. Library consumers, the CLI, the server and the bench harness
// embed it in a ScenarioConfig and build their (Model, Dataset) pair
// from that, so the parallelism knob, the seed and the scale cannot
// drift between surfaces.

import (
	"fmt"
	"math"

	"leodivide/internal/scenario"
)

// RunConfig is the one shared option set for standing up the pipeline.
// It carries every knob that all three surfaces (library, CLI, bench
// harness) agree on; zero value aside, obtain it from DefaultRunConfig.
//
// Parallelism is the single coherent worker bound: ScenarioConfig's
// Generate passes it to dataset generation, and BuildModel routes it
// through Model.Parallelism (facade fan-outs, capacity sweeps and
// xregion's sibling generations in lockstep), so one field controls
// every per-run pool in the pipeline. Output is identical at every
// setting.
type RunConfig struct {
	// Seed reproduces the dataset (default 1).
	Seed int64
	// Scale shrinks the dataset to this fraction of the national total,
	// in (0, 1] (default 1).
	Scale float64
	// Parallelism bounds worker counts everywhere, dataset generation
	// included: 0 = one worker per CPU, 1 = the exact serial path. The
	// once-per-process grid tables behind generation are not per run
	// and always use one worker per CPU.
	Parallelism int
	// Calibrated pins constellation sizing to the paper's fitted
	// effective cell count (Model.Calibrated).
	Calibrated bool
}

// DefaultRunConfig returns the paper's configuration: seed 1, full
// scale, one worker per CPU, uncalibrated.
func DefaultRunConfig() RunConfig {
	return RunConfig{Seed: 1, Scale: 1}
}

// Validate reports whether the configuration is usable. Scale must be
// a finite value in (0, 1]: NaN fails both ordered comparisons, so it
// is rejected explicitly rather than slipping through the range check.
func (c RunConfig) Validate() error {
	if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) {
		return fmt.Errorf("leodivide: scale must be finite, got %v", c.Scale)
	}
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("leodivide: scale must be in (0,1], got %v", c.Scale)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("leodivide: parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

// String renders the canonical human-readable form of the
// configuration. The scale is formatted exactly as the scenario cache
// key and the golden-corpus directory names format it
// (strconv 'g'/-1), so a config printed in a log line can be matched
// against a cache key or corpus path by eye.
func (c RunConfig) String() string {
	return fmt.Sprintf("seed=%d scale=%s parallelism=%d calibrated=%t",
		c.Seed, scenario.FormatFloat(c.Scale), c.Parallelism, c.Calibrated)
}
