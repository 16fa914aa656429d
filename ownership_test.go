package leodivide

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// scribble overwrites every exported number, string and bool reachable
// from v through struct fields, arrays, slices, maps and pointers. A
// caller that scribbles over a value it was handed must change nothing
// but its own copy.
func scribble(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		scribble(v.Elem(), seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				scribble(v.Field(i), seen)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			scribble(v.Index(i), seen)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(iter.Value())
			scribble(e, seen)
			v.SetMapIndex(iter.Key(), e)
		}
	case reflect.String:
		v.SetString("scribbled")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		switch {
		case v.CanFloat():
			v.SetFloat(-7.25)
		case v.CanInt():
			v.SetInt(-7)
		case v.CanUint():
			v.SetUint(7)
		}
	}
}

// scribbleOver scribbles over a copy of x and everything it reaches.
func scribbleOver(x any) {
	root := reflect.New(reflect.TypeOf(x)).Elem()
	root.Set(reflect.ValueOf(x))
	scribble(root, map[uintptr]bool{})
}

// TestResultsOwnTheirValues: no value handed out by the API shares
// memory with package state or a later result. For every registry
// experiment, a caller that overwrites everything its result reaches
// leaves the next run's result unchanged; so does a caller that
// overwrites a Normalized config.
func TestResultsOwnTheirValues(t *testing.T) {
	ctx := context.Background()
	ds := smallDataset(t, 1)
	m := NewModel()
	encode := func(t *testing.T, v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	run := func(t *testing.T, name string) any {
		t.Helper()
		e, ok := m.ExperimentByName(name)
		if !ok {
			t.Fatalf("no experiment %q", name)
		}
		v, err := e.Run(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	for _, e := range m.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			v := run(t, e.Name)
			want := encode(t, v)
			scribbleOver(v)
			if got := encode(t, run(t, e.Name)); got != want {
				t.Errorf("overwriting one %s result changed the next one", e.Name)
			}
		})
	}

	t.Run("normalized", func(t *testing.T) {
		cfg := DefaultScenarioConfig("table2")
		wantKey, err := cfg.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		want := encode(t, run(t, "table2"))
		scribbleOver(cfg.Normalized())
		if got := encode(t, run(t, "table2")); got != want {
			t.Error("overwriting a Normalized config changed the next table2 result")
		}
		if key, err := cfg.CanonicalKey(); err != nil || key != wantKey {
			t.Errorf("overwriting a Normalized config changed the default key to %q (err %v)", key, err)
		}
	})
}
