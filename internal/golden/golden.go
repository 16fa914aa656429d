// Package golden is the golden-corpus engine behind the repository's
// regression gate: it freezes every registered experiment's result as
// canonical, diff-friendly JSON under testdata/golden/<seed>/<scale>/,
// and compares a fresh replay against the frozen corpus with per-field
// float tolerances, reporting drift as field-level diffs.
//
// The package is deliberately generic — it knows nothing about the
// leodivide facade. The replay driver (the root package's golden.go,
// behind both `leodivide verify` and the root golden tests) enumerates
// the experiment registry itself and hands results here as plain
// values, so the engine cannot drift from the registry it gates.
//
// Why this exists: the reproduction's value is that its numbers land
// where the paper's do (4.67M locations, max cell 5998, five cells
// above the 20:1 threshold, ...). The type system cannot catch a
// refactor that silently shifts Table 2 by one satellite; a frozen
// corpus with machine-checked tolerances can.
package golden

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"leodivide/internal/safeio"
)

// Encode renders v as canonical corpus JSON: two-space indented with a
// trailing newline. encoding/json already sorts map keys and emits
// struct fields in declaration order, so equal values always produce
// identical bytes — byte equality of encodings is the strongest form of
// result equality the corpus and the determinism suite both use.
func Encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("golden: encoding: %w", err)
	}
	return append(b, '\n'), nil
}

// Rule is one per-field tolerance override. Path is a /-separated field
// path as produced by Compare (e.g. "/Rows/3/FullServiceSats"); a "*"
// segment matches any single object key or array index.
type Rule struct {
	Path string
	// Rel and Abs bound the accepted numeric drift: values a, b pass if
	// |a-b| <= max(Abs, Rel*max(|a|,|b|)).
	Rel, Abs float64
}

// Tolerance is the comparison policy: a default numeric tolerance plus
// path-specific overrides (first matching rule wins).
type Tolerance struct {
	// DefaultRel and DefaultAbs apply to numeric fields no rule matches.
	DefaultRel, DefaultAbs float64
	Rules                  []Rule
}

// Default returns the corpus policy: strings, booleans and nulls must
// match exactly; numbers tolerate a 1e-9 relative drift, which is zero
// for the integer-valued fields the anchors live in (counts, satellite
// totals) while absorbing last-ulp float formatting differences across
// toolchains.
func Default() Tolerance {
	return Tolerance{DefaultRel: 1e-9}
}

// Exact returns a zero-tolerance policy: any difference is drift. The
// determinism suite uses it to prove byte-identical serial vs parallel
// results.
func Exact() Tolerance { return Tolerance{} }

// relAbs returns the tolerance in force at path.
func (t Tolerance) relAbs(path string) (rel, abs float64) {
	for _, r := range t.Rules {
		if pathMatch(r.Path, path) {
			return r.Rel, r.Abs
		}
	}
	return t.DefaultRel, t.DefaultAbs
}

// pathMatch reports whether a rule pattern matches a concrete path.
func pathMatch(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	xs := strings.Split(path, "/")
	if len(ps) != len(xs) {
		return false
	}
	for i := range ps {
		if ps[i] != "*" && ps[i] != xs[i] {
			return false
		}
	}
	return true
}

// Diff is one field-level divergence between a replay and the corpus.
type Diff struct {
	// Path locates the field, e.g. "/Fraction/3/2"; "" is the root.
	Path string
	// Got and Want render the replayed and frozen values.
	Got, Want string
}

func (d Diff) String() string {
	p := d.Path
	if p == "" {
		p = "/"
	}
	return fmt.Sprintf("%s: current %s, corpus %s", p, d.Got, d.Want)
}

// Compare parses two corpus encodings and returns every field-level
// difference outside the tolerance policy, in document order. A nil,
// empty slice means the replay matches the corpus.
func Compare(got, want []byte, tol Tolerance) ([]Diff, error) {
	g, err := decodeTree(got)
	if err != nil {
		return nil, fmt.Errorf("golden: parsing replay: %w", err)
	}
	w, err := decodeTree(want)
	if err != nil {
		return nil, fmt.Errorf("golden: parsing corpus: %w", err)
	}
	var diffs []Diff
	compareTree("", g, w, tol, &diffs)
	return diffs, nil
}

// decodeTree parses JSON keeping numbers as json.Number, so integer
// anchors compare exactly and diffs print the literal corpus text.
func decodeTree(b []byte) (any, error) {
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

func render(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return strconv.Quote(x)
	case json.Number:
		return x.String()
	case bool:
		return strconv.FormatBool(x)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		s := string(b)
		if len(s) > 80 {
			s = s[:77] + "..."
		}
		return s
	}
}

func compareTree(path string, got, want any, tol Tolerance, diffs *[]Diff) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*diffs = append(*diffs, Diff{path, render(got), render(want)})
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			kp := path + "/" + k
			gv, gok := g[k]
			wv, wok := w[k]
			switch {
			case !gok:
				*diffs = append(*diffs, Diff{kp, "(absent)", render(wv)})
			case !wok:
				*diffs = append(*diffs, Diff{kp, render(gv), "(absent)"})
			default:
				compareTree(kp, gv, wv, tol, diffs)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			*diffs = append(*diffs, Diff{path, render(got), render(want)})
			return
		}
		if len(g) != len(w) {
			*diffs = append(*diffs, Diff{path,
				fmt.Sprintf("%d elements", len(g)), fmt.Sprintf("%d elements", len(w))})
			// Still compare the shared prefix: the length diff plus the
			// first value diffs localize an insertion far better than a
			// bare count mismatch.
		}
		n := len(g)
		if len(w) < n {
			n = len(w)
		}
		for i := 0; i < n; i++ {
			compareTree(fmt.Sprintf("%s/%d", path, i), g[i], w[i], tol, diffs)
		}
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			*diffs = append(*diffs, Diff{path, render(got), render(want)})
			return
		}
		if g.String() == w.String() {
			return
		}
		gf, gerr := g.Float64()
		wf, werr := w.Float64()
		rel, abs := tol.relAbs(path)
		if gerr == nil && werr == nil && numClose(gf, wf, rel, abs) {
			return
		}
		*diffs = append(*diffs, Diff{path, g.String(), w.String()})
	default:
		// string, bool, nil: exact.
		if got != want {
			*diffs = append(*diffs, Diff{path, render(got), render(want)})
		}
	}
}

// numClose reports |a-b| <= max(abs, rel*max(|a|,|b|)).
func numClose(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	bound := rel * math.Max(math.Abs(a), math.Abs(b))
	if abs > bound {
		bound = abs
	}
	return d <= bound
}

// Corpus layout: <root>/<seed>/<scale>/<experiment>.json, with seed an
// integer and scale formatted by FormatScale. A directory is one
// replayed configuration; the file set is the registry at freeze time.

// FormatScale renders a dataset scale as its directory name ("0.02").
func FormatScale(scale float64) string {
	return strconv.FormatFloat(scale, 'g', -1, 64)
}

// Dir returns the corpus directory for one (seed, scale) configuration.
func Dir(root string, seed int64, scale float64) string {
	return filepath.Join(root, strconv.FormatInt(seed, 10), FormatScale(scale))
}

// File returns the corpus path of one experiment's frozen result.
func File(root string, seed int64, scale float64, experiment string) string {
	return filepath.Join(Dir(root, seed, scale), experiment+".json")
}

// WriteFile encodes v canonically and writes it atomically (safeio).
// Parent directories are created as needed.
func WriteFile(ctx context.Context, path string, v any) error {
	b, err := Encode(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return safeio.WriteFileBytes(ctx, path, b)
}

// ReadFile reads one frozen encoding.
func ReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// Config is one committed corpus configuration.
type Config struct {
	Seed  int64
	Scale float64
	// Dir is the configuration's corpus directory.
	Dir string
}

// Configs enumerates the configurations committed under root, sorted by
// (seed, scale). Directory names that do not parse as a seed or scale
// are an error — a stray directory in the corpus is corpus corruption,
// not something to skip silently.
func Configs(root string) ([]Config, error) {
	seeds, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("golden: reading corpus root: %w", err)
	}
	var out []Config
	for _, se := range seeds {
		if !se.IsDir() {
			return nil, fmt.Errorf("golden: unexpected file %s in corpus root", se.Name())
		}
		seed, err := strconv.ParseInt(se.Name(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden: corpus directory %q is not a seed", se.Name())
		}
		scales, err := os.ReadDir(filepath.Join(root, se.Name()))
		if err != nil {
			return nil, err
		}
		for _, sc := range scales {
			if !sc.IsDir() {
				return nil, fmt.Errorf("golden: unexpected file %s in corpus seed %d", sc.Name(), seed)
			}
			scale, err := strconv.ParseFloat(sc.Name(), 64)
			if err != nil || scale <= 0 || scale > 1 {
				return nil, fmt.Errorf("golden: corpus directory %s/%q is not a scale", se.Name(), sc.Name())
			}
			out = append(out, Config{
				Seed: seed, Scale: scale,
				Dir: filepath.Join(root, se.Name(), sc.Name()),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Scale < out[j].Scale
	})
	return out, nil
}

// WriteDiffs renders up to max diffs (0 = all) for one experiment
// replay, prefixed so a CI log line names the experiment, seed, scale
// and field path on its own.
func WriteDiffs(w io.Writer, experiment string, cfg Config, diffs []Diff, max int) {
	n := len(diffs)
	if max > 0 && n > max {
		n = max
	}
	for _, d := range diffs[:n] {
		fmt.Fprintf(w, "verify: %s seed=%d scale=%s drifted at %s\n",
			experiment, cfg.Seed, FormatScale(cfg.Scale), d)
	}
	if n < len(diffs) {
		fmt.Fprintf(w, "verify: %s seed=%d scale=%s ... and %d more field diffs\n",
			experiment, cfg.Seed, FormatScale(cfg.Scale), len(diffs)-n)
	}
}
