package region

import (
	"math"
	"testing"
)

func TestRegistry(t *testing.T) {
	regions := Regions()
	if len(regions) != 3 {
		t.Fatalf("Regions() returned %d regions, want 3", len(regions))
	}
	if regions[0].Key() != DefaultKey {
		t.Errorf("the default region %q must lead the registry, got %q", DefaultKey, regions[0].Key())
	}
	want := []string{"us", "brazil-rural", "taipei-dense"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
		r, ok := ByName(n)
		if !ok {
			t.Fatalf("ByName(%q) not found", n)
		}
		if r.Key() != n {
			t.Errorf("ByName(%q).Key() = %q", n, r.Key())
		}
		if r.Name() == "" || r.Description() == "" {
			t.Errorf("region %q missing a display name or description", n)
		}
	}
	if _, ok := ByName("atlantis"); ok {
		t.Error("ByName accepted an unknown region")
	}
	if _, ok := ByName(""); ok {
		t.Error("ByName accepted the empty string")
	}
	// Regions hands out a fresh slice of the once-built table, so
	// overwriting an element of one result changes neither the next
	// result nor a lookup.
	regions[0] = regions[1]
	if got := Regions()[0].Key(); got != DefaultKey {
		t.Errorf("Regions()[0] = %q after overwriting an earlier result, want %q", got, DefaultKey)
	}
	if r, _ := ByName(DefaultKey); r.Key() != DefaultKey {
		t.Errorf("ByName(%q) = %q after overwriting a Regions result", DefaultKey, r.Key())
	}
}

func TestGenConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  GenConfig
		ok   bool
	}{
		{"full scale", GenConfig{Seed: 1, Scale: 1}, true},
		{"small scale", GenConfig{Seed: 1, Scale: 0.02}, true},
		{"zero scale", GenConfig{Seed: 1, Scale: 0}, false},
		{"negative scale", GenConfig{Seed: 1, Scale: -0.5}, false},
		{"scale above one", GenConfig{Seed: 1, Scale: 1.01}, false},
		{"nan scale", GenConfig{Seed: 1, Scale: math.NaN()}, false},
		{"inf scale", GenConfig{Seed: 1, Scale: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() accepted an invalid config")
			}
		})
	}
}
