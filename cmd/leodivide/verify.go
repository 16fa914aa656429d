package main

// `leodivide verify` replays the committed golden corpus against the
// current binary and exits nonzero on drift. It runs the same replay as
// the root golden tests (leodivide.VerifyGolden): CI runs it as its own
// job, and a developer can run it locally before sending a refactor to
// confirm no experiment's numbers moved.
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
// -parallelism is honored, for dataset generation on every region as
// well as for the experiments — drift that appears only at some worker
// count is exactly the kind of bug the gate exists to catch.

import (
	"context"
	"flag"
	"fmt"
	"io"

	"leodivide"
)

func runVerify(ctx context.Context, w io.Writer, global leodivide.RunConfig, args []string) error {
	fs := flag.NewFlagSet("leodivide verify", flag.ContinueOnError)
	corpus := fs.String("corpus", leodivide.GoldenRoot, "golden corpus root directory")
	regionCorpus := fs.String("region-corpus", leodivide.GoldenRegionRoot,
		"per-region findings corpus root (empty to skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	replayed, drifted, err := leodivide.VerifyGolden(ctx, w, *corpus, *regionCorpus, global.Parallelism)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if drifted > 0 {
		return fmt.Errorf("verify: %d of %d experiment replays drifted from the golden corpus", drifted, replayed)
	}
	fmt.Fprintf(w, "verify: OK — %d experiment replays match the golden corpus\n", replayed)
	return nil
}
