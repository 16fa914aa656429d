package constellation

import (
	"reflect"
	"strings"
	"testing"

	"leodivide/internal/orbit"
	"leodivide/internal/spectrum"
)

// Every declared system must validate, carry a unique lowercase key,
// and resolve by name in canonical order.
func TestSystemsValidate(t *testing.T) {
	names := SystemNames()
	seen := map[string]bool{}
	for i, sys := range Systems() {
		if err := sys.Validate(); err != nil {
			t.Errorf("system %q: %v", sys.Key, err)
		}
		if seen[sys.Key] {
			t.Errorf("duplicate system key %q", sys.Key)
		}
		seen[sys.Key] = true
		if sys.Key != strings.ToLower(sys.Key) {
			t.Errorf("system key %q is not canonical lowercase", sys.Key)
		}
		if names[i] != sys.Key {
			t.Errorf("SystemNames()[%d] = %q, want %q", i, names[i], sys.Key)
		}
		got, ok := SystemByName(sys.Key)
		if !ok || got.Key != sys.Key {
			t.Errorf("SystemByName(%q) = %q, %v", sys.Key, got.Key, ok)
		}
	}
	if Systems()[0].Key != "starlink" {
		t.Errorf("first system is %q, want the starlink default", Systems()[0].Key)
	}
	if _, ok := SystemByName("iridium"); ok {
		t.Error("SystemByName accepted an undeclared system")
	}
}

// Every accessor hands out a deep copy of the declared table: writing
// through the Shells or Bands of a returned System changes no later
// lookup. CostByName agrees with the full spec, and DefaultKey names
// the first system.
func TestSystemLookupsUnaliased(t *testing.T) {
	// The expectation owns its slices even if an accessor aliases.
	want := Systems()
	for i := range want {
		want[i].Shells = append([]orbit.Walker(nil), want[i].Shells...)
		want[i].Bands = append([]spectrum.Band(nil), want[i].Bands...)
	}
	mutate := func(s System) {
		s.Bands[0].WidthMHz = -1
		s.Shells[0].Total = -1
	}
	sys, _ := SystemByName("starlink")
	mutate(sys)
	for _, s := range Systems() {
		mutate(s)
	}
	mutate(StarlinkSystem())
	if got := Systems(); !reflect.DeepEqual(got, want) {
		t.Errorf("Systems() changed after mutating returned copies:\n got %+v\nwant %+v", got, want)
	}
	for _, w := range want {
		got, ok := SystemByName(w.Key)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Errorf("SystemByName(%q) changed after mutating returned copies", w.Key)
		}
		cost, ok := CostByName(w.Key)
		if !ok || cost != w.Cost {
			t.Errorf("CostByName(%q) = %+v, %v; want %+v", w.Key, cost, ok, w.Cost)
		}
	}
	if _, ok := CostByName("iridium"); ok {
		t.Error("CostByName accepted an undeclared system")
	}
	if want[0].Key != DefaultKey || StarlinkSystem().Key != DefaultKey {
		t.Errorf("DefaultKey %q does not name the default system %q", DefaultKey, want[0].Key)
	}
}

// The default system IS the paper's Starlink constants, bit for bit —
// the byte-identity of every default-model result rests on this.
func TestStarlinkSystemMatchesConstants(t *testing.T) {
	s := StarlinkSystem()
	if s.CellCapacityGbps != spectrum.MaxCellCapacityGbps {
		t.Errorf("cell capacity %v, want the Schedule S constant %v",
			s.CellCapacityGbps, spectrum.MaxCellCapacityGbps)
	}
	if s.MaxBeamsPerCell != spectrum.BeamsPerCellLimit {
		t.Errorf("beam limit %d, want %d", s.MaxBeamsPerCell, spectrum.BeamsPerCellLimit)
	}
	if s.SpectralEfficiencyBpsPerHz != spectrum.SpectralEfficiencyBpsPerHz {
		t.Errorf("spectral efficiency %v, want %v",
			s.SpectralEfficiencyBpsPerHz, spectrum.SpectralEfficiencyBpsPerHz)
	}
	if got := spectrum.UTDownlinkMHzOf(s.Bands); got != spectrum.UTDownlinkMHz() {
		t.Errorf("UT downlink %v MHz, want the Schedule S total %v", got, spectrum.UTDownlinkMHz())
	}
	if got, want := spectrum.UTBeamsOf(s.Bands), spectrum.UTBeamsOf(spectrum.ScheduleS()); got != want {
		t.Errorf("UT beams %d, want the Schedule S total %d", got, want)
	}
	if s.Fleet.Name != StarlinkGen1().Name || s.TotalSatellites() != StarlinkGen1().TotalSatellites() {
		t.Errorf("default fleet is %q (%d sats), want Gen1", s.Fleet.Name, s.TotalSatellites())
	}
}

// The metamorphic oracle the cost model documents: scaling every USD
// input by k scales every USD-valued output — including cost per served
// location — by exactly k. The factors are powers of two, so linearity
// must hold bit-for-bit, not approximately.
func TestCostModelScalesLinearly(t *testing.T) {
	const sats, served = 3236, 93440
	for _, sys := range Systems() {
		base := sys.Cost
		for _, k := range []float64{0.5, 2, 4} {
			scaled := base
			scaled.SatelliteBuildUSD *= k
			scaled.LaunchPerSatelliteUSD *= k
			scaled.TerminalSubsidyUSD *= k
			scaled.MonthlyOpexPerSatelliteUSD *= k
			checks := []struct {
				name      string
				got, want float64
			}{
				{"AllInSatelliteUSD", scaled.AllInSatelliteUSD(), k * base.AllInSatelliteUSD()},
				{"PerSatelliteCapexUSD", scaled.PerSatelliteCapexUSD(), k * base.PerSatelliteCapexUSD()},
				{"FleetCapexUSD", scaled.FleetCapexUSD(sats), k * base.FleetCapexUSD(sats)},
				{"AnnualizedUSD", scaled.AnnualizedUSD(sats), k * base.AnnualizedUSD(sats)},
				{"MonthlyPerServedLocationUSD",
					scaled.MonthlyPerServedLocationUSD(sats, served),
					k * base.MonthlyPerServedLocationUSD(sats, served)},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s: %s at k=%g = %v, want exactly %v",
						sys.Key, c.name, k, c.got, c.want)
				}
			}
		}
	}
	zero := StarlinkSystem().Cost
	if got := zero.MonthlyPerServedLocationUSD(100, 0); got != 0 {
		t.Errorf("cost with nothing served = %v, want 0", got)
	}
}
