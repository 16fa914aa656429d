package leodivide

// The golden gate. Every registry experiment's result on the default
// region, and the findings experiment on every other declared region,
// is frozen as canonical JSON at a small (seed, scale) matrix. Any
// semantic drift — a refactor that changes Table 2 sizing, a
// calibration constant nudged, a parallel fan-out that reorders a
// reduction — fails the replay with a field-level path naming the
// experiment and value.
//
// This file is the one definition of that gate: the matrix, the two
// corpora, the tolerance policy, the walk that replays a configuration
// and the completeness check. `leodivide verify` calls VerifyGolden;
// the root golden tests replay and regenerate through the same walk:
//
//	go test -run TestGolden -update .
//
// rewrites the corpus after an intentional model change. Review the
// corpus diff like any other code change: the diff IS the semantic
// change, and it must be justified against the paper's anchors.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"leodivide/internal/golden"
	"leodivide/internal/region"
)

// GoldenRoot holds every registry experiment's frozen result on the
// default region, one directory per configuration; GoldenRegionRoot
// holds the findings corpus of each other declared region under its
// key. Both are relative to the module root.
const (
	GoldenRoot       = "testdata/golden"
	GoldenRegionRoot = "testdata/golden-regions"
)

// goldenMatrix is the committed replay matrix, seeds {1, 2} × scales
// {0.02, 0.05}. The scales keep all 64 replays in CI seconds, and two
// seeds catch seed-dependent drift: a constant folded wrongly shows at
// every seed, a generation change differently per seed. `-update`
// freezes exactly these configurations, and TestGoldenCorpusCoversRegistry
// holds the committed corpora to them.
var goldenMatrix = []golden.Config{
	{Seed: 1, Scale: 0.02}, {Seed: 1, Scale: 0.05},
	{Seed: 2, Scale: 0.02}, {Seed: 2, Scale: 0.05},
}

// goldenMaxDiffs bounds the field diffs reported per drifted result.
const goldenMaxDiffs = 10

// goldenTolerance is the corpus comparison policy for one experiment.
// The default 1e-9 relative tolerance absorbs last-ulp float
// differences across Go toolchain versions while still pinning every
// anchor to nine significant digits; integer fields (satellite counts,
// cell maxima, location totals) compare exactly because their JSON
// encodings are string-identical.
//
// busyhour's diurnal-profile facts are exact on top of that: the peak
// hour, the peak factor and the single-cell peak-to-mean ratio come
// from the calibrated profile alone, so no kernel change may move them
// by even an ulp. Its footprint and national ratios come from summed
// curves and keep the default.
func goldenTolerance(experiment string) golden.Tolerance {
	tol := golden.Default()
	if experiment == "busyhour" {
		for _, path := range []string{"/PeakHourLocal", "/PeakFactor", "/Stagger/CellPeakToMean"} {
			tol.Rules = append(tol.Rules, golden.Rule{Path: path}) // zero Rel and Abs: exact
		}
	}
	return tol
}

// goldenCorpus is one frozen corpus: the experiments replayed on one
// region's datasets, one file each per configuration under root.
type goldenCorpus struct {
	root    string
	region  string
	names   []string
	configs []golden.Config // the configurations on disk; see loadGoldenCorpora
}

// goldenCorpora declares the corpora: every registry experiment on the
// default region under root and, unless regionRoot is empty, findings
// on each other declared region under regionRoot/<key>.
func goldenCorpora(root, regionRoot string) []goldenCorpus {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	corpora := []goldenCorpus{{root: root, region: region.DefaultKey, names: names}}
	if regionRoot == "" {
		return corpora
	}
	for _, key := range region.Names() {
		if key != region.DefaultKey {
			corpora = append(corpora, goldenCorpus{
				root: filepath.Join(regionRoot, key), region: key, names: []string{"findings"},
			})
		}
	}
	return corpora
}

// loadGoldenCorpora declares the corpora under root and regionRoot and
// reads the configurations each holds, checking that regionRoot holds
// exactly one directory per declared region and every configuration
// exactly one file per declared experiment.
func loadGoldenCorpora(root, regionRoot string) ([]goldenCorpus, error) {
	corpora := goldenCorpora(root, regionRoot)
	if err := corpora[0].load(); err != nil {
		return nil, err
	}
	if regionRoot == "" {
		return corpora, nil
	}
	keys := make([]string, 0, len(corpora)-1)
	for _, c := range corpora[1:] {
		keys = append(keys, c.region)
	}
	if err := checkGoldenDir(regionRoot, keys); err != nil {
		return nil, err
	}
	for i := 1; i < len(corpora); i++ {
		if err := corpora[i].load(); err != nil {
			return nil, err
		}
	}
	return corpora, nil
}

// load reads the configurations under c.root and checks each holds
// exactly c's experiments.
func (c *goldenCorpus) load() error {
	configs, err := golden.Configs(c.root)
	if err != nil {
		return err
	}
	if len(configs) == 0 {
		return fmt.Errorf("corpus %s is empty (regenerate with `go test -run TestGolden -update .`)", c.root)
	}
	files := make([]string, len(c.names))
	for i, n := range c.names {
		files[i] = n + ".json"
	}
	for _, cc := range configs {
		if err := checkGoldenDir(cc.Dir, files); err != nil {
			return err
		}
	}
	c.configs = configs
	return nil
}

// checkGoldenDir is the corpus completeness check: dir must hold
// exactly the entries named in want. It reports the missing and the
// stray names, each in sorted order.
func checkGoldenDir(dir string, want []string) error {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return err
	}
	want = append([]string(nil), want...)
	sort.Strings(want)
	var missing, stray []string
	i := 0
	for _, e := range entries {
		for i < len(want) && want[i] < e.Name() {
			missing = append(missing, want[i])
			i++
		}
		if i < len(want) && want[i] == e.Name() {
			i++
		} else {
			stray = append(stray, e.Name())
		}
	}
	missing = append(missing, want[i:]...)
	var faults []string
	if len(missing) > 0 {
		faults = append(faults, fmt.Sprintf("missing %v (regenerate with -update)", missing))
	}
	if len(stray) > 0 {
		faults = append(faults, fmt.Sprintf("stray %v (delete them)", stray))
	}
	if faults != nil {
		return fmt.Errorf("corpus %s: %s", dir, strings.Join(faults, "; "))
	}
	return nil
}

// replay is the one walk over a corpus configuration. It generates the
// configuration's dataset on the corpus's region at the given
// parallelism, builds the model from the same ScenarioConfig, and hands
// each frozen experiment's result to fn.
func (c goldenCorpus) replay(ctx context.Context, cfg golden.Config, parallelism int, fn func(name string, v any) error) error {
	sc := ScenarioConfig{
		RunConfig: RunConfig{Seed: cfg.Seed, Scale: cfg.Scale, Parallelism: parallelism},
		Region:    c.region,
	}
	ds, err := sc.Generate(ctx)
	if err != nil {
		return fmt.Errorf("generate region %s %s: %w", c.region, sc.RunConfig, err)
	}
	m := sc.BuildModel()
	for _, name := range c.names {
		e, ok := m.ExperimentByName(name)
		if !ok {
			return fmt.Errorf("experiment %q is not in the registry", name)
		}
		v, err := e.Run(ctx, ds)
		if err != nil {
			return fmt.Errorf("run %s on region %s %s: %w", name, c.region, sc.RunConfig, err)
		}
		if err := fn(name, v); err != nil {
			return err
		}
	}
	return nil
}

// check compares one replayed result with its frozen file under
// goldenTolerance, writes up to goldenMaxDiffs of its field diffs to w,
// and reports whether it drifted. A result off the default region is
// named with its region, as in "findings[brazil-rural]".
func (c goldenCorpus) check(w io.Writer, cfg golden.Config, name string, v any) (bool, error) {
	got, err := golden.Encode(v)
	if err != nil {
		return false, fmt.Errorf("encode %s: %w", name, err)
	}
	path := golden.File(c.root, cfg.Seed, cfg.Scale, name)
	want, err := golden.ReadFile(path)
	if err != nil {
		return false, err
	}
	diffs, err := golden.Compare(got, want, goldenTolerance(name))
	if err != nil {
		return false, fmt.Errorf("compare %s: %w", path, err)
	}
	label := name
	if c.region != region.DefaultKey {
		label += "[" + c.region + "]"
	}
	golden.WriteDiffs(w, label, cfg, diffs, goldenMaxDiffs)
	return len(diffs) > 0, nil
}

// VerifyGolden replays the golden corpus under root and, unless
// regionRoot is empty, the per-region findings corpus under regionRoot,
// generating every dataset at the given parallelism. It first checks
// that each corpus holds exactly the files it declares, then writes one
// line per replayed configuration and the field diffs of every drifted
// result to w. It returns how many results it replayed and how many of
// them drifted.
func VerifyGolden(ctx context.Context, w io.Writer, root, regionRoot string, parallelism int) (replayed, drifted int, err error) {
	corpora, err := loadGoldenCorpora(root, regionRoot)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range corpora {
		for _, cfg := range c.configs {
			err := c.replay(ctx, cfg, parallelism, func(name string, v any) error {
				d, err := c.check(w, cfg, name, v)
				if d {
					drifted++
				}
				replayed++
				return err
			})
			if err != nil {
				return replayed, drifted, err
			}
			fmt.Fprintf(w, "verify: region %s seed=%d scale=%s: %d experiments replayed\n",
				c.region, cfg.Seed, golden.FormatScale(cfg.Scale), len(c.names))
		}
	}
	return replayed, drifted, nil
}
