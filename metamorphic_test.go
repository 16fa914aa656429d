package leodivide

// Facade-level metamorphic tests: properties the pipeline must satisfy
// under transformations of its inputs, independent of any calibrated
// constant. They complement the golden corpus — the corpus freezes
// exact values, these freeze relations, so a recalibration that
// legitimately moves the corpus still has to respect them.

import (
	"context"
	"testing"

	"leodivide/internal/testutil"
)

// TestScaleInvariantRatios is the scale-invariance oracle: per-location
// ratios must not depend on how large a sample of the nation we
// synthesize, because scaling shrinks every cell proportionally (the
// paper's distribution shape is the pinned quantity, not the count).
// Totals, by contrast, must scale exactly linearly.
func TestScaleInvariantRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale generation is not a -short test")
	}
	ctx := context.Background()
	type probe struct {
		total        int
		gini         float64
		unaffordable float64
	}
	scales := []float64{0.05, 0.2}
	probes := make([]probe, len(scales))
	for i, scale := range scales {
		ds, err := GenerateDataset(ctx, WithSeed(1), WithScale(scale))
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		m := NewModel()
		f1, err := m.Fig1(ctx, ds)
		if err != nil {
			t.Fatalf("scale %g fig1: %v", scale, err)
		}
		f4, err := m.Fig4(ctx, ds)
		if err != nil {
			t.Fatalf("scale %g fig4: %v", scale, err)
		}
		p := probe{total: f1.TotalLocs, gini: f1.Gini}
		found := false
		for _, r := range f4.Results {
			if r.Plan.Name == "Starlink Residential" && r.Subsidy == nil {
				p.unaffordable = r.UnaffordableFraction
				found = true
			}
		}
		if !found {
			t.Fatalf("scale %g: Fig4 has no unsubsidized Starlink Residential entry", scale)
		}
		probes[i] = p
	}

	// Totals scale exactly linearly: total(s)/s is the same 4.672M
	// national count at every scale.
	perUnit0 := float64(probes[0].total) / scales[0]
	for i := 1; i < len(scales); i++ {
		perUnit := float64(probes[i].total) / scales[i]
		if perUnit != perUnit0 {
			t.Errorf("total locations not linear in scale: %v/%g = %v but %v/%g = %v",
				probes[0].total, scales[0], perUnit0, probes[i].total, scales[i], perUnit)
		}
	}

	// Shape ratios are scale-invariant to well under 1% (measured drift
	// is ~0.1% for Gini and ~0.02% for affordability — the residual is
	// sampling noise in the unpinned geography, not model behavior).
	for i := 1; i < len(scales); i++ {
		testutil.RequireWithinRel(t, "Gini across scales", probes[i].gini, probes[0].gini, 0.01)
		testutil.RequireWithinRel(t, "unaffordable fraction across scales",
			probes[i].unaffordable, probes[0].unaffordable, 0.01)
	}

	// And the paper's headline: ~74.5% of locations cannot afford
	// Starlink Residential — at every scale.
	for _, p := range probes {
		testutil.RequireWithinRel(t, "paper F4 anchor", p.unaffordable, 0.745, 0.01)
	}
}
