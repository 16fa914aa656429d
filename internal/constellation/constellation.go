// Package constellation models multi-shell LEO fleets: a named set of
// Walker shells with a combined satellite-density profile. The paper's
// analysis treats "the Starlink constellation" as a single 53° shell;
// this package is the extension that lets the same capacity model be
// asked about the real multi-shell Gen1 deployment and the authorized
// Gen2 system — e.g. "how far toward the >40,000-satellite requirement
// does the full Gen2 authorization actually get?"
//
// Shell parameters follow SpaceX's FCC authorizations (Gen1:
// SAT-MOD-20200417-00037; Gen2: SAT-AMD-20210818-00105, the filing the
// paper cites for its beam table).
package constellation

import (
	"fmt"

	"leodivide/internal/geo"
	"leodivide/internal/orbit"
)

// Fleet is a named collection of Walker shells operated as one system.
type Fleet struct {
	Name   string
	Shells []orbit.Walker
}

// StarlinkGen1 returns the five-shell first-generation Starlink system
// as authorized (≈4,408 satellites).
func StarlinkGen1() Fleet {
	return Fleet{
		Name: "Starlink Gen1",
		Shells: []orbit.Walker{
			{AltitudeKm: 550, InclinationDeg: 53.0, Total: 1584, Planes: 72, Phasing: 39},
			{AltitudeKm: 540, InclinationDeg: 53.2, Total: 1584, Planes: 72, Phasing: 39},
			{AltitudeKm: 570, InclinationDeg: 70.0, Total: 720, Planes: 36, Phasing: 17},
			{AltitudeKm: 560, InclinationDeg: 97.6, Total: 348, Planes: 6, Phasing: 1},
			{AltitudeKm: 560, InclinationDeg: 97.6, Total: 172, Planes: 4, Phasing: 1},
		},
	}
}

// StarlinkGen2 returns the Gen2 system as amended in the 2021 filing
// (≈29,988 satellites across nine shells).
func StarlinkGen2() Fleet {
	return Fleet{
		Name: "Starlink Gen2",
		Shells: []orbit.Walker{
			{AltitudeKm: 340, InclinationDeg: 53.0, Total: 5280, Planes: 48, Phasing: 1},
			{AltitudeKm: 345, InclinationDeg: 46.0, Total: 5280, Planes: 48, Phasing: 1},
			{AltitudeKm: 350, InclinationDeg: 38.0, Total: 5280, Planes: 48, Phasing: 1},
			{AltitudeKm: 360, InclinationDeg: 96.9, Total: 3600, Planes: 30, Phasing: 1},
			{AltitudeKm: 525, InclinationDeg: 53.0, Total: 3360, Planes: 28, Phasing: 1},
			{AltitudeKm: 530, InclinationDeg: 43.0, Total: 3360, Planes: 28, Phasing: 1},
			{AltitudeKm: 535, InclinationDeg: 33.0, Total: 3360, Planes: 28, Phasing: 1},
			{AltitudeKm: 604, InclinationDeg: 148.0, Total: 144, Planes: 12, Phasing: 1},
			{AltitudeKm: 614, InclinationDeg: 115.7, Total: 324, Planes: 18, Phasing: 1},
		},
	}
}

// Validate checks every shell.
func (f Fleet) Validate() error {
	if len(f.Shells) == 0 {
		return fmt.Errorf("constellation: fleet %q has no shells", f.Name)
	}
	for i, s := range f.Shells {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("constellation: fleet %q shell %d: %w", f.Name, i, err)
		}
	}
	return nil
}

// TotalSatellites sums the fleet's satellites.
func (f Fleet) TotalSatellites() int {
	n := 0
	for _, s := range f.Shells {
		n += s.Total
	}
	return n
}

// DensityPerKm2 returns the fleet's combined satellite surface density
// at a latitude: Σ shells N_s · f_s(φ) / A_earth. Shells whose
// inclination band excludes the latitude contribute nothing.
func (f Fleet) DensityPerKm2(latDeg float64) float64 {
	d := 0.0
	for _, s := range f.Shells {
		if !shellCovers(s, latDeg) {
			continue
		}
		d += float64(s.Total) * s.DensityFactor(latDeg) / geo.EarthAreaKm2
	}
	return d
}

// shellCovers reports whether a shell's subsatellite band reaches the
// latitude (with a half-degree grace matching the density cap).
func shellCovers(s orbit.Walker, latDeg float64) bool {
	inc := s.InclinationDeg
	if inc > 90 {
		inc = 180 - inc
	}
	if latDeg < 0 {
		latDeg = -latDeg
	}
	return latDeg <= inc+0.5
}

// EquivalentSingleShellSatellites converts the fleet's density at a
// latitude into the size of a single reference shell providing the
// same density there. This lets multi-shell fleets be compared against
// the paper's single-shell sizing numbers (which assume the reference
// shell's density profile).
func (f Fleet) EquivalentSingleShellSatellites(ref orbit.Walker, latDeg float64) int {
	refDensityPerSat := ref.DensityFactor(latDeg) / geo.EarthAreaKm2
	if refDensityPerSat <= 0 {
		return 0
	}
	return int(f.DensityPerKm2(latDeg) / refDensityPerSat)
}
