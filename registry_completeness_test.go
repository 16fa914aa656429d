package leodivide

import (
	"context"
	"reflect"
	"testing"
)

// registryMethodNames maps every exported Model method with the uniform
// experiment signature func(context.Context, *Dataset) (T, error) to its
// registry name. A new uniform-signature method must either be added
// here (and to Experiments) or to registryExemptMethods with a reason —
// TestRegistryCompleteness enforces the invariant.
var registryMethodNames = map[string]string{
	"Fig1":               "fig1",
	"Table1":             "table1",
	"Table2":             "table2",
	"Fig2":               "fig2",
	"Fig3":               "fig3",
	"Fig4":               "fig4",
	"RunFindings":        "findings",
	"AssessFleets":       "fleets",
	"Fig4Refined":        "refined",
	"BusyHour":           "busyhour",
	"Economics":          "econ",
	"CostCurve":          "costcurve",
	"CrossConstellation": "xconst",
	"CrossRegion":        "xregion",
}

// registryExemptMethods lists uniform-signature methods deliberately
// absent from the registry, with the reason.
var registryExemptMethods = map[string]string{
	"Finding1": "reported inside the findings experiment, not standalone",
}

// uniformExperimentMethods returns the names of exported Model methods
// with the exact signature func(context.Context, *Dataset) (T, error).
func uniformExperimentMethods(t *testing.T) []string {
	t.Helper()
	var (
		ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()
		dsType  = reflect.TypeOf((*Dataset)(nil))
		errType = reflect.TypeOf((*error)(nil)).Elem()
		mt      = reflect.TypeOf(Model{})
	)
	var names []string
	for i := 0; i < mt.NumMethod(); i++ {
		m := mt.Method(i)
		ft := m.Type // receiver is In(0)
		if ft.IsVariadic() || ft.NumIn() != 3 || ft.NumOut() != 2 {
			continue
		}
		if ft.In(1) != ctxType || ft.In(2) != dsType {
			continue
		}
		if ft.Out(1) != errType {
			continue
		}
		names = append(names, m.Name)
	}
	return names
}

// TestRegistryCompleteness: every uniform-signature Model method is in
// the registry exactly once (or explicitly exempted), and the registry
// contains nothing else.
func TestRegistryCompleteness(t *testing.T) {
	methods := uniformExperimentMethods(t)
	if len(methods) == 0 {
		t.Fatal("reflection found no uniform-signature methods; the probe is broken")
	}

	registry := map[string]int{}
	for _, exp := range NewModel().Experiments() {
		registry[exp.Name]++
	}
	for name, n := range registry {
		if n > 1 {
			t.Errorf("experiment %q appears %d times in the registry", name, n)
		}
	}

	covered := map[string]bool{}
	for _, method := range methods {
		regName, mapped := registryMethodNames[method]
		_, exempt := registryExemptMethods[method]
		switch {
		case mapped && exempt:
			t.Errorf("method %s is both mapped and exempt — pick one", method)
		case mapped:
			if registry[regName] == 0 {
				t.Errorf("method %s maps to %q but the registry has no such entry", method, regName)
			}
			covered[regName] = true
		case exempt:
			// fine, documented omission
		default:
			t.Errorf("uniform-signature method %s is neither in registryMethodNames nor registryExemptMethods; register it in Experiments or exempt it with a reason", method)
		}
	}
	for method, regName := range registryMethodNames {
		found := false
		for _, m := range methods {
			if m == method {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registryMethodNames lists %s -> %q but no such uniform-signature method exists", method, regName)
		}
	}

	for name := range registry {
		if !covered[name] {
			t.Errorf("registry entry %q corresponds to no uniform-signature method", name)
		}
	}
}

// TestRegistryListing: every listed experiment resolves by name to an
// entry with the same name and description.
func TestRegistryListing(t *testing.T) {
	m := NewModel()
	for _, e := range m.Experiments() {
		got, ok := m.ExperimentByName(e.Name)
		if !ok || got.Name != e.Name || got.Description != e.Description {
			t.Errorf("ExperimentByName(%q) = {%q, %q}, %v; listed as {%q, %q}",
				e.Name, got.Name, got.Description, ok, e.Name, e.Description)
		}
	}
	if _, ok := m.ExperimentByName("warpdrive"); ok {
		t.Error("ExperimentByName accepted an unknown name")
	}
}

// TestRegistryBindsModel: the registry is one shared table, but each
// Model's Experiments and ExperimentByName run under that Model. Fig3
// is the witness because its curves follow MaxOversub (Fig2's grid of
// caps is fixed, so it cannot tell two models apart).
func TestRegistryBindsModel(t *testing.T) {
	ds := smallDataset(t, 1)
	ctx := context.Background()
	a, b := NewModel(), NewModel()
	b.MaxOversub = 30
	run := func(e Experiment, ok bool) []Fig3Result {
		t.Helper()
		if !ok {
			t.Fatal("fig3 missing from the registry")
		}
		v, err := e.Run(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		return v.([]Fig3Result)
	}
	byName := func(m Model) []Fig3Result { return run(m.ExperimentByName("fig3")) }
	listed := func(m Model) []Fig3Result {
		for _, e := range m.Experiments() {
			if e.Name == "fig3" {
				return run(e, true)
			}
		}
		return run(Experiment{}, false)
	}
	for _, get := range []func(Model) []Fig3Result{byName, listed} {
		ra, rb := get(a), get(b)
		if ra[0].Oversub != a.MaxOversub || rb[0].Oversub != b.MaxOversub {
			t.Errorf("fig3 oversub = %v, %v; want each model's own %v, %v",
				ra[0].Oversub, rb[0].Oversub, a.MaxOversub, b.MaxOversub)
		}
		if reflect.DeepEqual(ra, rb) {
			t.Error("models with different MaxOversub got identical fig3 results")
		}
	}
}
