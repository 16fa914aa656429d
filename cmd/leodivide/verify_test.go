package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leodivide/internal/region"
)

// repoCorpus is the committed golden corpus relative to this package;
// repoRegionCorpus the committed per-region findings corpus.
const (
	repoCorpus       = "../../testdata/golden"
	repoRegionCorpus = "../../testdata/golden-regions"
)

func TestVerifyPassesOnCommittedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus replay is not a -short test")
	}
	var buf bytes.Buffer
	if err := run([]string{"verify", "-corpus", repoCorpus, "-region-corpus", repoRegionCorpus}, &buf); err != nil {
		t.Fatalf("verify on committed corpus: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "verify: OK") {
		t.Errorf("output missing OK line:\n%s", out)
	}
	if !strings.Contains(out, "experiment replays match") {
		t.Errorf("output missing replay count:\n%s", out)
	}
	for _, want := range []string{"region brazil-rural", "region taipei-dense"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q replay line:\n%s", want, out)
		}
	}
}

// copyCorpusConfig copies one committed corpus config into a fresh root
// so a test can mutate it without touching the repository corpus.
func copyCorpusConfig(t *testing.T, seed, scale string) string {
	t.Helper()
	src := filepath.Join(repoCorpus, seed, scale)
	dst := filepath.Join(t.TempDir(), "golden")
	dir := filepath.Join(dst, seed, scale)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read committed corpus: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// copyRegionCorpusConfig copies one committed config of every region's
// findings corpus into a fresh root, trimmed to match copyCorpusConfig.
func copyRegionCorpusConfig(t *testing.T, seed, scale string) string {
	t.Helper()
	root := filepath.Join(t.TempDir(), "golden-regions")
	for _, key := range region.Names() {
		if key == region.DefaultKey {
			continue
		}
		dir := filepath.Join(root, key, seed, scale)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(repoRegionCorpus, key, seed, scale, "findings.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "findings.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestVerifyFailsOnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not a -short test")
	}
	for _, tc := range []struct{ file, from, to, field string }{
		// One frozen anchor: fig1's max cell size.
		{"fig1.json", `"MaxCell": `, `"MaxCell": 9`, "/MaxCell"},
		// One ulp on a busyhour field the tolerance policy holds exact.
		{"busyhour.json", `"PeakFactor": 2.222222222222222,`, `"PeakFactor": 2.2222222222222223,`, "/PeakFactor"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			corpus := copyCorpusConfig(t, "1", "0.02")
			path := filepath.Join(corpus, "1", "0.02", tc.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated := strings.Replace(string(b), tc.from, tc.to, 1)
			if mutated == string(b) {
				t.Fatalf("%s has no %s to mutate:\n%s", tc.file, tc.from, b)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			err = run([]string{"verify", "-corpus", corpus, "-region-corpus", ""}, &buf)
			if err == nil {
				t.Fatalf("verify must fail on a mutated corpus; output:\n%s", buf.String())
			}
			if !strings.Contains(err.Error(), "drifted") {
				t.Errorf("error %q does not mention drift", err)
			}
			out := buf.String()
			// The drift report names the experiment, the config and the field path.
			for _, want := range []string{strings.TrimSuffix(tc.file, ".json"), "seed=1", "scale=0.02", tc.field} {
				if !strings.Contains(out, want) {
					t.Errorf("drift report missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestVerifyFailsOnIncompleteCorpus: a missing experiment file in the
// main corpus and a stray file in a region corpus config each fail the
// completeness check, which names the file.
func TestVerifyFailsOnIncompleteCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not a -short test")
	}
	t.Run("missing", func(t *testing.T) {
		corpus := copyCorpusConfig(t, "1", "0.02")
		if err := os.Remove(filepath.Join(corpus, "1", "0.02", "table2.json")); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run([]string{"verify", "-corpus", corpus, "-region-corpus", ""}, &buf)
		if err == nil || !strings.Contains(err.Error(), "table2") {
			t.Errorf("missing-experiment corpus must fail naming table2, got %v", err)
		}
	})
	t.Run("stray", func(t *testing.T) {
		corpus := copyCorpusConfig(t, "1", "0.02")
		regionCorpus := copyRegionCorpusConfig(t, "1", "0.02")
		stray := filepath.Join(regionCorpus, "brazil-rural", "1", "0.02", "stray.json")
		if err := os.WriteFile(stray, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run([]string{"verify", "-corpus", corpus, "-region-corpus", regionCorpus}, &buf)
		if err == nil || !strings.Contains(err.Error(), "stray.json") {
			t.Errorf("region corpus with a stray file must fail naming stray.json, got %v", err)
		}
	})
}

// TestVerifyFailsOnRegionDrift mutates one frozen per-region finding
// and expects the replay to fail naming the region.
func TestVerifyFailsOnRegionDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not a -short test")
	}
	mainCorpus := copyCorpusConfig(t, "1", "0.02")
	regionCorpus := copyRegionCorpusConfig(t, "1", "0.02")
	findings := filepath.Join(regionCorpus, "brazil-rural", "1", "0.02", "findings.json")
	b, err := os.ReadFile(findings)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(b), `"TotalLocations": `, `"TotalLocations": 9`, 1)
	if mutated == string(b) {
		t.Fatalf("findings.json has no TotalLocations field to mutate:\n%s", b)
	}
	if err := os.WriteFile(findings, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = run([]string{"verify", "-corpus", mainCorpus, "-region-corpus", regionCorpus}, &buf)
	if err == nil {
		t.Fatalf("verify must fail on a mutated region corpus; output:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("error %q does not mention drift", err)
	}
	if !strings.Contains(buf.String(), "findings[brazil-rural]") {
		t.Errorf("drift report does not name the drifted region:\n%s", buf.String())
	}
}

func TestVerifyFailsOnEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"verify", "-corpus", t.TempDir()}, &buf)
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty corpus must fail, got %v", err)
	}
}

func TestVerifyBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"verify", "-no-such-flag"}, &buf); err == nil {
		t.Error("unknown verify flag must error")
	}
}
