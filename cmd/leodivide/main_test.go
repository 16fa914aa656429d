package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leodivide"
	"leodivide/internal/obs"
	"leodivide/internal/safeio"
)

// runCmd invokes the CLI entry point with a small-scale dataset so the
// whole command matrix stays fast.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	full := append([]string{"-scale", "0.05"}, args...)
	if err := run(full, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestFig1Command(t *testing.T) {
	out := runCmd(t, "fig1")
	for _, want := range []string{"Figure 1", "max locations/cell", "# series"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestTable1Command(t *testing.T) {
	out := runCmd(t, "table1")
	for _, want := range []string{"Table 1", "3850", "17.3", "100/20"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2Command(t *testing.T) {
	out := runCmd(t, "table2")
	for _, want := range []string{"Table 2", "beamspread", "79287"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestTable2Calibrated(t *testing.T) {
	out := runCmd(t, "-calibrated", "table2")
	if !strings.Contains(out, "Table 2") {
		t.Error("calibrated table2 failed")
	}
}

func TestFig2Command(t *testing.T) {
	out := runCmd(t, "fig2")
	if !strings.Contains(out, "Figure 2") {
		t.Error("fig2 output missing title")
	}
}

func TestFig3Command(t *testing.T) {
	out := runCmd(t, "fig3")
	for _, want := range []string{"Figure 3", "additional satellites"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

func TestFig4Command(t *testing.T) {
	out := runCmd(t, "fig4")
	for _, want := range []string{"Figure 4", "Starlink Residential", "Lifeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestFindingsCommand(t *testing.T) {
	out := runCmd(t, "findings")
	for _, want := range []string{"F1:", "F2:", "F3:", "F4:"} {
		if !strings.Contains(out, want) {
			t.Errorf("findings output missing %q", want)
		}
	}
}

func TestGenCommand(t *testing.T) {
	out := runCmd(t, "gen")
	if !strings.Contains(out, "cell_id,latitude,longitude,county_fips,unserved_locations") {
		t.Error("gen output missing cell CSV header")
	}
	lines := strings.Count(out, "\n")
	if lines < 500 {
		t.Errorf("gen produced only %d lines", lines)
	}
}

func TestGenLocationsCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "locs.csv")
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.02", "-locations-csv", path, "-locations-scale", "0.01", "gen"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

// The locations file comes from the dataset's own seed, so a seed set
// through -scenario gives the same locations as the -seed flag, just as
// it gives the same cells.
func TestGenLocationsFollowScenarioSeed(t *testing.T) {
	gen := func(seedArgs ...string) (cells string, locs []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "locs.csv")
		var buf bytes.Buffer
		args := append([]string{"-scale", "0.02"}, seedArgs...)
		if err := run(append(args, "-locations-csv", path, "gen"), &buf); err != nil {
			t.Fatal(err)
		}
		locs, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), locs
	}
	flagCells, flagLocs := gen("-seed", "5")
	scenarioCells, scenarioLocs := gen("-scenario", `{"seed":5}`)
	if flagCells != scenarioCells {
		t.Fatal("-seed 5 and -scenario {\"seed\":5} wrote different cells")
	}
	if !bytes.Equal(flagLocs, scenarioLocs) {
		t.Error("-seed 5 and -scenario {\"seed\":5} wrote different locations files")
	}
}

// An unknown command fails before a dataset is generated, and the error
// names every valid command. The six analyses the CLI printed outside
// the registry are unknown commands now.
func TestUnknownCommand(t *testing.T) {
	datasets := obs.Default.Counter("gen.datasets")
	for _, name := range []string{"simcheck", "ablate", "linkbudget", "states", "latency", "stability", "fgi1"} {
		before := datasets.Value()
		var buf bytes.Buffer
		err := run([]string{"-scale", "0.02", name}, &buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown command %q", name)) {
			t.Errorf("%s: err = %v, want an unknown-command error", name, err)
			continue
		}
		for _, valid := range []string{"fig1", "xregion", "experiments", "gen", "export", "verify", "serve", "loadgen", "all"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("%s: error %q does not name the valid command %q", name, err, valid)
			}
		}
		if got := datasets.Value(); got != before {
			t.Errorf("%s: generated %d datasets before failing", name, got-before)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: printed %q before failing", name, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Error("missing command should fail")
	}
}

func TestBadScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0", "fig1"}, &buf); err == nil {
		t.Error("scale 0 should fail")
	}
}

func TestFleetsCommand(t *testing.T) {
	out := runCmd(t, "fleets")
	for _, want := range []string{"Starlink Gen1", "Starlink Gen2", "coverage ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleets output missing %q", want)
		}
	}
}

func TestRefinedCommand(t *testing.T) {
	out := runCmd(t, "refined")
	for _, want := range []string{"Refined affordability", "median-only", "Lifeline eligibility"} {
		if !strings.Contains(out, want) {
			t.Errorf("refined output missing %q", want)
		}
	}
}

func TestExportCommand(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-dir", dir, "export"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cells.geojson", "cells.csv", "gateways.geojson"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing export %s: %v", name, err)
		}
	}
}

// TestExportReportsWriteFailures: report/export artifacts are written
// through safeio, so an injected write error, short write, or close
// failure on any output file must fail the export command and leave no
// file at the faulted artifact's path.
func TestExportReportsWriteFailures(t *testing.T) {
	boom := errors.New("disk full")
	for _, mode := range []struct {
		name     string
		artifact string
		install  func() func()
	}{
		{"write error", "fig1_cdf.csv", func() func() {
			return safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
				if filepath.Base(path) == "fig1_cdf.csv" {
					return &safeio.FaultWriter{W: w, FailAfter: 8, Err: boom}
				}
				return w
			})
		}},
		{"short write", "cells.geojson", func() func() {
			return safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
				if filepath.Base(path) == "cells.geojson" {
					return &safeio.FaultWriter{W: w, FailAfter: 8, Short: true}
				}
				return w
			})
		}},
		{"close failure", "cells.csv", func() func() {
			return safeio.SetCloseFault(func(path string) error {
				if strings.HasPrefix(filepath.Base(path), "cells.csv") {
					return boom
				}
				return nil
			})
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer mode.install()()
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := run([]string{"-scale", "0.02", "-dir", dir, "export"}, &buf); err == nil {
				t.Error("export swallowed the injected write failure")
			}
			if _, err := os.Stat(filepath.Join(dir, mode.artifact)); !os.IsNotExist(err) {
				t.Errorf("failed export left %s behind (stat: %v)", mode.artifact, err)
			}
		})
	}
}

func TestGenLocationsCSVWriteFailure(t *testing.T) {
	boom := errors.New("disk full")
	defer safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
		return &safeio.FaultWriter{W: w, FailAfter: 32, Err: boom}
	})()
	locCSV := filepath.Join(t.TempDir(), "locations.csv")
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.02", "-locations-csv", locCSV, "gen"}, &buf)
	if !errors.Is(err, boom) {
		t.Errorf("gen error = %v, want %v", err, boom)
	}
	if _, statErr := os.Stat(locCSV); !os.IsNotExist(statErr) {
		t.Error("failed gen left a locations.csv behind")
	}
}

func TestBusyHourCommand(t *testing.T) {
	out := runCmd(t, "busyhour")
	for _, want := range []string{"Busy hour", "peak-to-mean", "per-location throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("busyhour output missing %q", want)
		}
	}
}

func TestEconCommand(t *testing.T) {
	out := runCmd(t, "econ")
	for _, want := range []string{"Constellation economics", "capex", "diminishing-returns tail"} {
		if !strings.Contains(out, want) {
			t.Errorf("econ output missing %q", want)
		}
	}
}

func TestCostCurveCommand(t *testing.T) {
	out := runCmd(t, "costcurve")
	for _, want := range []string{"Cost curve", "Starlink Gen1", "Kuiper", "OneWeb", "$/loc/month"} {
		if !strings.Contains(out, want) {
			t.Errorf("costcurve output missing %q", want)
		}
	}
}

func TestXConstCommand(t *testing.T) {
	out := runCmd(t, "xconst")
	for _, want := range []string{"Cross-constellation", "Starlink Gen2", "Kuiper", "cheapest serving system"} {
		if !strings.Contains(out, want) {
			t.Errorf("xconst output missing %q", want)
		}
	}
}

// The -scenario flag is the HTTP wire contract on the CLI: a request
// body selects the experiment, constellation and knobs, and the
// command argument becomes optional.
func TestScenarioFlag(t *testing.T) {
	out := runCmd(t, "-scenario", `{"experiment":"xconst","constellation":"kuiper","max_oversub":25}`)
	if !strings.Contains(out, "Cross-constellation") || !strings.Contains(out, "25:1 cap") {
		t.Errorf("scenario-driven xconst output wrong:\n%.400s", out)
	}

	// The scenario's experiment and an explicit command argument must
	// agree; disagreement is an error, not a silent preference.
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.05", "-scenario", `{"experiment":"table2"}`, "fig1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting command and scenario experiment returned %v, want conflict error", err)
	}

	// An explicit -region must survive the merge: a body that leaves
	// the region out would otherwise fall back to us silently.
	err = run([]string{"-scale", "0.05", "-region", "brazil-rural", "-scenario", `{"experiment":"fig1"}`}, &buf)
	if err == nil || !strings.Contains(err.Error(), `"brazil-rural"`) || !strings.Contains(err.Error(), `"us"`) {
		t.Errorf("-region dropped by -scenario returned %v, want a conflict naming both regions", err)
	}
	var viaBody, viaFlag bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-region", "brazil-rural", "-scenario",
		`{"experiment":"fig1","region":"brazil-rural"}`}, &viaBody); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.05", "-region", "brazil-rural", "fig1"}, &viaFlag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(viaBody.String(), "75000") || viaBody.String() != viaFlag.String() {
		t.Errorf("-scenario brazil-rural fig1 differs from -region brazil-rural fig1:\n%.400s\nvs\n%.400s",
			viaBody.String(), viaFlag.String())
	}

	// Bodies under the retired schemas fail, naming the current one.
	for _, schema := range []string{"leodivide-serve/v1", "leodivide-serve/v2"} {
		body := fmt.Sprintf(`{"schema":%q,"experiment":"table2"}`, schema)
		if err := run([]string{"-scale", "0.05", "-scenario", body}, &buf); err == nil ||
			!strings.Contains(err.Error(), leodivide.ScenarioSchema) {
			t.Errorf("-scenario under %s returned %v, want a rejection naming %s", schema, err, leodivide.ScenarioSchema)
		}
	}

	// Unknown constellation and malformed JSON fail up front.
	if err := run([]string{"-scenario", `{"experiment":"table2","constellation":"iridium"}`}, &buf); err == nil {
		t.Error("unknown constellation in -scenario should fail")
	}
	if err := run([]string{"-scenario", `{"experiment":`}, &buf); err == nil {
		t.Error("malformed -scenario JSON should fail")
	}

	// A scenario scale override beats the shorthand flag: the pointer
	// fields round-trip the exact dataset identity.
	var buf2 bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-scenario", `{"experiment":"table2","scale":0.05}`}, &buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "79287") {
		t.Errorf("scenario scale override did not reproduce the 0.05-scale table2 anchor:\n%.400s", buf2.String())
	}
}

// `all` prints exactly each registry experiment's own output, in
// registry order, separated by blank lines.
func TestAllCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var want []string
	for _, e := range leodivide.NewModel().Experiments() {
		want = append(want, runCmd(t, e.Name))
	}
	if got := runCmd(t, "all"); got != strings.Join(want, "\n") {
		t.Errorf("all output (%d bytes) is not the %d experiments' outputs joined by blank lines (%d bytes)",
			len(got), len(want), len(strings.Join(want, "\n")))
	}
}

func TestExportFigureCSVs(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-dir", dir, "export"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1_cdf.csv", "fig2_grid.csv", "fig3_curves.csv", "fig4_curves.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) < 100 {
			t.Errorf("%s implausibly small (%d bytes)", name, len(data))
		}
	}

	// fig4_curves.csv lists each plan's curve as one block, in the
	// figure's own plan order, so the file's bytes do not depend on map
	// iteration order.
	data, err := os.ReadFile(filepath.Join(dir, "fig4_curves.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		plan, _, _ := strings.Cut(line, ",")
		if len(got) == 0 || got[len(got)-1] != plan {
			got = append(got, plan)
		}
	}
	ctx := context.Background()
	ds, err := leodivide.GenerateDataset(ctx, leodivide.WithScale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	r, err := leodivide.NewModel().Fig4(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, res := range r.Results {
		want = append(want, label(res))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fig4_curves.csv plan blocks %q, want the figure's order %q", got, want)
	}
}

// TestMetricsFlag: -metrics must not change stdout (it reports on
// stderr), and must not error.
func TestMetricsFlag(t *testing.T) {
	var plain, instrumented bytes.Buffer
	if err := run([]string{"-scale", "0.02", "table1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.02", "-metrics", "-trace", "table1"}, &instrumented); err != nil {
		t.Fatal(err)
	}
	if plain.String() != instrumented.String() {
		t.Error("-metrics/-trace changed stdout; observability must report out-of-band")
	}
}
