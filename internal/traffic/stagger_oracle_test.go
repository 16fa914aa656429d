package traffic

import (
	"context"
	"math"
	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/region"
)

// twoPassColumns is the projection the two-pass stagger analysis built
// before binning: each cell's sold demand and diurnal phase.
type twoPassColumns struct {
	demand, phase []float64
}

// twoPassCurve is the binned kernel as it ran before binCurves fused
// the scopes: one histogram pass over the columns per residue class,
// for one scope at a time.
func twoPassCurve(p DiurnalProfile, cols twoPassColumns, steps int) []float64 {
	g := gcd(steps, 24)
	classes, shift := steps/g, 24/g
	totals := make([]float64, steps)
	for r := 0; r < classes; r++ {
		utc := 24 * float64(r) / float64(steps)
		var bins [24]float64
		for i, d := range cols.demand {
			lo, w := bracket(wrap24(utc + cols.phase[i] + 48))
			bins[lo] += d * (1 - w)
			bins[(lo+1)%24] += d * w
		}
		for s := r; s < steps; s += classes {
			k := (s / classes) * shift % 24
			total := 0.0
			for j, b := range bins {
				total += b * p[(j+k)%24]
			}
			totals[s] = total
		}
	}
	return totals
}

// twoPassStagger is AnalyzeStagger as it ran before the fused pass:
// project every cell, copy the footprint members' entries out of the
// projection, and bin each scope in its own pass.
func twoPassStagger(p DiurnalProfile, cells []demand.Cell, halfWidth float64) StaggerAnalysis {
	densest := cells[0]
	for _, c := range cells[1:] {
		if c.Locations > densest.Locations {
			densest = c
		}
	}
	var cols, fp twoPassColumns
	for _, c := range cells {
		cols.demand = append(cols.demand, c.DemandGbps())
		cols.phase = append(cols.phase, c.Center.Lng/15)
	}
	for i, c := range cells {
		if math.Abs(c.Center.Lng-densest.Center.Lng) <= halfWidth {
			fp.demand = append(fp.demand, cols.demand[i])
			fp.phase = append(fp.phase, cols.phase[i])
		}
	}
	return StaggerAnalysis{
		CellPeakToMean:      p.PeakFactor(),
		FootprintPeakToMean: PeakToMean(twoPassCurve(p, fp, 96)),
		NationalPeakToMean:  PeakToMean(twoPassCurve(p, cols, 96)),
	}
}

// TestAnalyzeStaggerMatchesTwoPass: the fused pass gives the two-pass
// analysis bit for bit on generated datasets of every region, over
// seeds, scales and footprint half-widths from a single longitude to
// the whole region.
func TestAnalyzeStaggerMatchesTwoPass(t *testing.T) {
	p := DefaultProfile()
	scales := []float64{0.02, 0.25, 1}
	seeds := 12
	if testing.Short() {
		scales, seeds = []float64{0.02}, 3
	}
	for _, name := range region.Names() {
		reg, _ := region.ByName(name)
		for _, scale := range scales {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				out, err := reg.Generate(context.Background(), region.GenConfig{Seed: seed, Scale: scale})
				if err != nil {
					t.Fatalf("%s seed %d scale %v: %v", name, seed, scale, err)
				}
				whole := make([]demand.Cell, out.Cells.Len())
				for i := range whole {
					whole[i] = out.Cells.At(i)
				}
				for _, hw := range []float64{0, 2, 8.5, 30, 400} {
					got, err := AnalyzeStagger(p, out.Cells, hw)
					if err != nil {
						t.Fatal(err)
					}
					want := twoPassStagger(p, whole, hw)
					if !sameBits(got, want) {
						t.Fatalf("%s seed %d scale %v half-width %v: %+v, two-pass %+v",
							name, seed, scale, hw, got, want)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same three ratios bit for
// bit.
func sameBits(a, b StaggerAnalysis) bool {
	return math.Float64bits(a.CellPeakToMean) == math.Float64bits(b.CellPeakToMean) &&
		math.Float64bits(a.FootprintPeakToMean) == math.Float64bits(b.FootprintPeakToMean) &&
		math.Float64bits(a.NationalPeakToMean) == math.Float64bits(b.NationalPeakToMean)
}
