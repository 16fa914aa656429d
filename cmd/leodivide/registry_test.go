package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"leodivide"
)

// TestRegistryCoversRenderers enforces the registry↔CLI pairing both
// ways: every registered experiment has a renderer (so `leodivide
// <name>` works), and every renderer corresponds to a registered
// experiment (no dead presentation code).
func TestRegistryCoversRenderers(t *testing.T) {
	m := leodivide.NewModel()
	registered := make(map[string]bool)
	for _, e := range m.Experiments() {
		registered[e.Name] = true
		if _, ok := renderers[e.Name]; !ok {
			t.Errorf("experiment %q has no CLI renderer", e.Name)
		}
		if e.Description == "" {
			t.Errorf("experiment %q has no description", e.Name)
		}
	}
	for name := range renderers {
		if !registered[name] {
			t.Errorf("renderer %q has no registry entry", name)
		}
	}
}

// TestExperimentsCommand checks the registry listing subcommand.
func TestExperimentsCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"experiments"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range leodivide.NewModel().Experiments() {
		if !strings.Contains(out, e.Name) {
			t.Errorf("experiments listing missing %q", e.Name)
		}
	}
	for _, name := range otherCommands {
		if !strings.Contains(out, name) {
			t.Errorf("experiments listing missing the command %q", name)
		}
	}
}

// TestParallelismFlagMatchesSerial: the -parallelism flag must not
// change output, per the engine's determinism contract.
func TestParallelismFlagMatchesSerial(t *testing.T) {
	var serial, pooled bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-parallelism", "1", "table2"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.05", "-parallelism", "8", "table2"}, &pooled); err != nil {
		t.Fatal(err)
	}
	if serial.String() != pooled.String() {
		t.Error("table2 output differs between -parallelism 1 and 8")
	}
}

// TestDocListsCommands: the package doc's command list names exactly
// the commands run accepts, the registry experiments plus the rest.
func TestDocListsCommands(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(src), "// Commands:\n//\n")
	block, _, _ = strings.Cut(block, "\n//\n")
	var documented []string
	for _, line := range strings.Split(block, "\n") {
		if f := strings.Fields(strings.TrimPrefix(line, "//")); len(f) > 0 {
			documented = append(documented, f[0])
		}
	}
	var accepted []string
	for _, e := range leodivide.NewModel().Experiments() {
		accepted = append(accepted, e.Name)
	}
	accepted = append(accepted, otherCommands...)
	slices.Sort(documented)
	slices.Sort(accepted)
	if !slices.Equal(documented, accepted) {
		t.Errorf("package doc lists %q, run accepts %q", documented, accepted)
	}
}
