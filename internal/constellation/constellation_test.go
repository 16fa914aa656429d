package constellation

import (
	"math"
	"testing"

	"leodivide/internal/geo"
	"leodivide/internal/orbit"
)

func TestFleetTotals(t *testing.T) {
	gen1 := StarlinkGen1()
	if err := gen1.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := gen1.TotalSatellites(); got != 4408 {
		t.Errorf("Gen1 total = %d, want 4408", got)
	}
	gen2 := StarlinkGen2()
	if err := gen2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := gen2.TotalSatellites(); got != 29988 {
		t.Errorf("Gen2 total = %d, want 29988", got)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (Fleet{Name: "empty"}).Validate(); err == nil {
		t.Error("empty fleet should fail validation")
	}
	bad := Fleet{Name: "bad", Shells: []orbit.Walker{{Total: 7, Planes: 3, AltitudeKm: 550, InclinationDeg: 53}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad shell should fail validation")
	}
}

func TestDensityCombination(t *testing.T) {
	// A fleet of one shell has exactly the shell's density.
	shell := orbit.Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 1584, Planes: 72, Phasing: 39}
	single := Fleet{Name: "one", Shells: []orbit.Walker{shell}}
	want := float64(shell.Total) * shell.DensityFactor(40) / geo.EarthAreaKm2
	if got := single.DensityPerKm2(40); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("single-shell density = %v, want %v", got, want)
	}
	// Two identical shells double it.
	double := Fleet{Name: "two", Shells: []orbit.Walker{shell, shell}}
	if got := double.DensityPerKm2(40); math.Abs(got-2*want)/want > 1e-12 {
		t.Errorf("double-shell density = %v, want %v", got, 2*want)
	}
}

func TestDensityRespectsInclinationBands(t *testing.T) {
	// A 38° shell contributes nothing at 45° latitude.
	low := orbit.Walker{AltitudeKm: 350, InclinationDeg: 38, Total: 5280, Planes: 48, Phasing: 1}
	high := orbit.Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 1584, Planes: 72, Phasing: 39}
	fleet := Fleet{Name: "mix", Shells: []orbit.Walker{low, high}}
	at45 := fleet.DensityPerKm2(45)
	onlyHigh := Fleet{Name: "high", Shells: []orbit.Walker{high}}.DensityPerKm2(45)
	if math.Abs(at45-onlyHigh)/onlyHigh > 1e-12 {
		t.Errorf("38-degree shell leaked density to 45N: %v vs %v", at45, onlyHigh)
	}
	// At 30° both contribute.
	if fleet.DensityPerKm2(30) <= onlyHigh {
		t.Error("low shell should add density at 30N")
	}
}

func TestGen2DensityAdvantageAtLowLatitudes(t *testing.T) {
	// Gen2's 33°/38°/43°/46° shells concentrate density at low
	// latitudes; the per-satellite density advantage over Gen1 should
	// be larger at 35° than at 50°.
	gen1, gen2 := StarlinkGen1(), StarlinkGen2()
	adv := func(lat float64) float64 {
		return (gen2.DensityPerKm2(lat) / float64(gen2.TotalSatellites())) /
			(gen1.DensityPerKm2(lat) / float64(gen1.TotalSatellites()))
	}
	if adv(35) <= adv(50) {
		t.Errorf("Gen2 low-latitude focus not visible: adv(35)=%v adv(50)=%v", adv(35), adv(50))
	}
}

func TestEquivalentSingleShell(t *testing.T) {
	shell := orbit.Walker{AltitudeKm: 550, InclinationDeg: 53, Total: 1584, Planes: 72, Phasing: 39}
	fleet := Fleet{Name: "self", Shells: []orbit.Walker{shell}}
	ref := shell
	ref.Total = 1
	// A fleet measured against its own shell type equals its own count.
	if got := fleet.EquivalentSingleShellSatellites(ref, 40); got != 1584 {
		t.Errorf("self-equivalent = %d, want 1584", got)
	}
}

func TestDensityProfile(t *testing.T) {
	gen1 := StarlinkGen1()
	for lat := 0.0; lat <= 60; lat += 10 {
		if d := gen1.DensityPerKm2(lat); d < 0 {
			t.Errorf("negative density %v at %v", d, lat)
		}
	}
	// Mid-latitudes denser than the equator for the 53-dominated Gen1.
	if gen1.DensityPerKm2(40) <= gen1.DensityPerKm2(0) {
		t.Error("Gen1 should be denser at 40N than at the equator")
	}
}

// Each shell's density, integrated two degrees inside its inclination
// band (away from the capped edge singularity), matches the analytic
// in-band mass (2/π)·asin(sin(i−2°)/sin(i)) of its satellite count.
func TestFleetDensityNormalization(t *testing.T) {
	for _, fleet := range []Fleet{StarlinkGen1(), StarlinkGen2()} {
		for _, shell := range fleet.Shells {
			inc := shell.InclinationDeg
			if inc > 90 {
				inc = 180 - inc
			}
			edge := inc - 2
			if edge <= 5 {
				continue
			}
			single := Fleet{Name: "one", Shells: []orbit.Walker{shell}}
			const steps = 3000
			total := 0.0
			for i := 0; i < steps; i++ {
				lat := -edge + 2*edge*(float64(i)+0.5)/steps
				half := edge / steps
				// Area of the full-longitude band [lat-half, lat+half].
				bandArea := geo.EarthAreaKm2 / 2 *
					(math.Sin(geo.Radians(lat+half)) - math.Sin(geo.Radians(lat-half)))
				total += single.DensityPerKm2(lat) * bandArea
			}
			si := math.Sin(geo.Radians(inc))
			want := float64(shell.Total) * 2 / math.Pi *
				math.Asin(math.Sin(geo.Radians(edge))/si)
			if ratio := total / want; ratio < 0.97 || ratio > 1.03 {
				t.Errorf("%s shell %v°: in-band density integrates to %.0f, want ≈%.0f",
					fleet.Name, shell.InclinationDeg, total, want)
			}
		}
	}
}
