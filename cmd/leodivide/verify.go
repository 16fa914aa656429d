package main

// `leodivide verify` replays the committed golden corpus against the
// current binary and exits nonzero on drift. It is the CLI face of
// TestGoldenCorpus: CI runs it as its own job, and a developer
// can run it locally before sending a refactor to confirm no
// experiment's numbers moved.
//
//	leodivide verify                      # replay testdata/golden + testdata/golden-regions
//	leodivide -parallelism 1 verify       # replay on the serial path
//	leodivide verify -corpus other/dir    # replay an alternate corpus
//	leodivide verify -region-corpus ""    # skip the per-region findings replay
//
// The replay intentionally ignores the global -seed/-scale/-calibrated
// flags: each corpus directory names the seed and scale it was frozen
// at, and the corpus is generated under the default (uncalibrated)
// model, so honoring those flags would compare apples to oranges.
// -parallelism is honored — drift that appears only at some worker
// count is exactly the kind of bug the gate exists to catch.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"leodivide"
	"leodivide/internal/golden"
	"leodivide/internal/region"
)

func runVerify(ctx context.Context, w io.Writer, global leodivide.RunConfig, args []string) error {
	fs := flag.NewFlagSet("leodivide verify", flag.ContinueOnError)
	corpus := fs.String("corpus", "testdata/golden", "golden corpus root directory")
	regionCorpus := fs.String("region-corpus", "testdata/golden-regions",
		"per-region findings corpus root (empty to skip)")
	maxDiffs := fs.Int("max-diffs", 10, "maximum field diffs to print per experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}

	configs, err := golden.Configs(*corpus)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if len(configs) == 0 {
		return fmt.Errorf("verify: corpus %s is empty (regenerate with `go test -run TestGoldenCorpus -update ./...`)", *corpus)
	}

	registry := leodivide.NewModel().Experiments()
	var drifted, replayed int
	for _, cc := range configs {
		// Replay under the exact conditions the corpus was frozen at:
		// the default run configuration, with only the seed and scale
		// taken from the corpus directory and the parallelism knob
		// inherited from the global flags.
		rc := leodivide.DefaultRunConfig()
		rc.Seed = cc.Seed
		rc.Scale = cc.Scale
		rc.Parallelism = global.Parallelism

		names, err := golden.Experiments(cc.Dir)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		frozen := make(map[string]bool, len(names))
		for _, n := range names {
			frozen[n] = true
		}
		// Completeness gate: the corpus must cover the whole registry
		// and carry nothing the registry no longer knows.
		for _, exp := range registry {
			if !frozen[exp.Name] {
				return fmt.Errorf("verify: corpus %s missing experiment %q (regenerate with -update)", cc.Dir, exp.Name)
			}
			delete(frozen, exp.Name)
		}
		for n := range frozen {
			return fmt.Errorf("verify: corpus %s has file for unknown experiment %q (delete it)", cc.Dir, n)
		}

		sc := leodivide.ScenarioConfig{RunConfig: rc}
		ds, err := sc.Generate(ctx)
		if err != nil {
			return fmt.Errorf("verify: generate %s: %w", rc, err)
		}
		m := sc.BuildModel()
		for _, exp := range registry {
			e, ok := m.ExperimentByName(exp.Name)
			if !ok {
				return fmt.Errorf("verify: experiment %q vanished from the model", exp.Name)
			}
			v, err := e.Run(ctx, ds)
			if err != nil {
				return fmt.Errorf("verify: run %s (%s): %w", exp.Name, rc, err)
			}
			got, err := golden.Encode(v)
			if err != nil {
				return fmt.Errorf("verify: encode %s: %w", exp.Name, err)
			}
			want, err := golden.ReadFile(golden.File(*corpus, cc.Seed, cc.Scale, exp.Name))
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			diffs, err := golden.Compare(got, want, golden.Default())
			if err != nil {
				return fmt.Errorf("verify: compare %s: %w", exp.Name, err)
			}
			replayed++
			if len(diffs) > 0 {
				drifted++
				golden.WriteDiffs(w, exp.Name, cc, diffs, *maxDiffs)
			}
		}
		// The canonical RunConfig rendering (RunConfig.String), so the
		// replay log names the run the same way cache keys do.
		fmt.Fprintf(w, "verify: %s: %d experiments replayed\n", rc, len(registry))
	}
	if *regionCorpus != "" {
		rd, rr, err := verifyRegions(ctx, w, global, *regionCorpus, *maxDiffs)
		if err != nil {
			return err
		}
		drifted += rd
		replayed += rr
	}

	if drifted > 0 {
		return fmt.Errorf("verify: %d of %d experiment replays drifted from the golden corpus", drifted, replayed)
	}
	fmt.Fprintf(w, "verify: OK — %d experiment replays match the golden corpus\n", replayed)
	return nil
}

// verifyRegions replays the per-region findings corpus: every declared
// non-default region must have a frozen findings.json at every (seed,
// scale) the corpus commits, regenerated on that geography and compared
// under the same tolerance as the main corpus.
func verifyRegions(ctx context.Context, w io.Writer, global leodivide.RunConfig, root string, maxDiffs int) (drifted, replayed int, err error) {
	for _, key := range region.Names() {
		if key == region.DefaultKey {
			// The main corpus already freezes every experiment on the
			// default geography.
			continue
		}
		dir := filepath.Join(root, key)
		configs, err := golden.Configs(dir)
		if err != nil {
			return 0, 0, fmt.Errorf("verify: region corpus %s: %w", dir, err)
		}
		if len(configs) == 0 {
			return 0, 0, fmt.Errorf("verify: region corpus %s is empty (regenerate with `go test -run TestGoldenRegionCorpus -update ./...`)", dir)
		}
		for _, cc := range configs {
			ds, err := leodivide.GenerateDataset(ctx,
				leodivide.WithSeed(cc.Seed),
				leodivide.WithScale(cc.Scale),
				leodivide.WithRegion(key),
			)
			if err != nil {
				return 0, 0, fmt.Errorf("verify: generate region %s (seed %d, scale %g): %w", key, cc.Seed, cc.Scale, err)
			}
			m := leodivide.NewModel()
			if global.Parallelism > 0 {
				m = m.Parallelism(global.Parallelism)
			}
			e, ok := m.ExperimentByName("findings")
			if !ok {
				return 0, 0, fmt.Errorf("verify: findings experiment vanished from the model")
			}
			v, err := e.Run(ctx, ds)
			if err != nil {
				return 0, 0, fmt.Errorf("verify: run findings on %s: %w", key, err)
			}
			got, err := golden.Encode(v)
			if err != nil {
				return 0, 0, fmt.Errorf("verify: encode findings on %s: %w", key, err)
			}
			want, err := golden.ReadFile(golden.File(dir, cc.Seed, cc.Scale, "findings"))
			if err != nil {
				return 0, 0, fmt.Errorf("verify: %w", err)
			}
			diffs, err := golden.Compare(got, want, golden.Default())
			if err != nil {
				return 0, 0, fmt.Errorf("verify: compare findings on %s: %w", key, err)
			}
			replayed++
			if len(diffs) > 0 {
				drifted++
				golden.WriteDiffs(w, "findings["+key+"]", cc, diffs, maxDiffs)
			}
		}
		fmt.Fprintf(w, "verify: region %s: %d findings replays\n", key, len(configs))
	}
	return drifted, replayed, nil
}
