package core

import (
	"context"
	"reflect"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/region"
)

// oracleDists generates one small dataset per region.
func oracleDists(t *testing.T) map[string]*demand.Distribution {
	t.Helper()
	out := make(map[string]*demand.Distribution)
	for _, name := range region.Names() {
		reg, _ := region.ByName(name)
		o, err := reg.Generate(context.Background(), region.GenConfig{Seed: 3, Scale: 0.25})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = o.Dist
	}
	return out
}

// perCapProfile is the returns profile as the per-cap sweep computed
// it: a binary search (ExcessAbove) at every cap.
func perCapProfile(m Model, d *demand.Distribution, oversub float64) []profilePoint {
	hardCap := m.Beams.MaxServableLocations(oversub)
	perBeam := m.Beams.LocationsPerBeam(oversub)
	prof := make([]profilePoint, hardCap-perBeam+1)
	for i := range prof {
		t := perBeam + i
		b, _ := m.Beams.BeamsForCell(t, oversub)
		prof[i] = profilePoint{unserved: d.ExcessAbove(t), beams: b}
	}
	return prof
}

var oracleOversubs = []float64{1, 10, 20, 25, 30, 1000}

// TestReturnsProfileMatchesPerCap: the linear walk gives the per-cap
// ExcessAbove profile exactly, for every system, region and
// oversubscription from 1:1 to 1000:1.
func TestReturnsProfileMatchesPerCap(t *testing.T) {
	for name, d := range oracleDists(t) {
		for _, sys := range constellation.Systems() {
			m := NewModelFor(sys)
			for _, o := range oracleOversubs {
				got, want := m.returnsProfile(d, o), perCapProfile(m, d, o)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s oversub %v: walked profile differs from the per-cap sweep (%d vs %d caps)",
						name, sys.Key, o, len(got), len(want))
				}
			}
		}
	}
}

// TestReturnsEndsMatchCurve: ReturnsEnds gives the first and last
// points of DiminishingReturns.
func TestReturnsEndsMatchCurve(t *testing.T) {
	dists := oracleDists(t)
	dists["paper"] = paperDist(t)
	for name, d := range dists {
		for _, sys := range constellation.Systems() {
			m := NewModelFor(sys)
			for _, o := range oracleOversubs {
				checkReturnsEnds(t, name+"/"+sys.Key, m, d, o)
			}
		}
	}
}

func checkReturnsEnds(t *testing.T, name string, m Model, d *demand.Distribution, oversub float64) {
	t.Helper()
	ctx := context.Background()
	for _, spread := range []float64{1, 10} {
		first, last, ok, err := m.ReturnsEnds(ctx, d, spread, oversub)
		if err != nil {
			t.Fatal(err)
		}
		points, err := m.DiminishingReturns(ctx, d, spread, oversub)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(points) > 0) {
			t.Fatalf("%s oversub %v: ok %v for a %d-point curve", name, oversub, ok, len(points))
		}
		if ok && (first != points[0] || last != points[len(points)-1]) {
			t.Errorf("%s oversub %v spread %v: ends %+v %+v, curve ends %+v %+v",
				name, oversub, spread, first, last, points[0], points[len(points)-1])
		}
	}
}
