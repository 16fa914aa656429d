package hexgrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"leodivide/internal/geo"
)

// fullWalk is the reference WalkBox replaces: every cell on the globe
// in ForEachCell order, with its center.
type fullWalk struct {
	ids     []CellID
	centers []geo.LatLng
}

func newFullWalk(r Resolution) fullWalk {
	var w fullWalk
	ForEachCell(r, func(id CellID) {
		w.ids = append(w.ids, id)
		w.centers = append(w.centers, id.LatLng())
	})
	return w
}

// in filters the full walk to the cells whose centers lie in box.
func (w fullWalk) in(box Box) []CellID {
	var out []CellID
	for i, c := range w.centers {
		if box.Contains(c) {
			out = append(out, w.ids[i])
		}
	}
	return out
}

func walkBoxIDs(t *testing.T, r Resolution, box Box, workers int) []CellID {
	t.Helper()
	shards, err := WalkBox(context.Background(), r, box, workers, func(s *[]CellID, id CellID, c geo.LatLng) {
		if c != id.LatLng() {
			t.Errorf("visit center %v for %v, want %v", c, id, id.LatLng())
		}
		*s = append(*s, id)
	})
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(shards...)
}

// TestWalkBoxMatchesFullWalk pins face culling: the culled walk visits
// exactly the cells, in exactly the order, that filtering the full
// 20-face walk would, for the US frame, the synthetic regions'
// footprints and random boxes.
func TestWalkBoxMatchesFullWalk(t *testing.T) {
	named := map[string]Box{
		"us":           {LatLo: 18, LatHi: 67, LngLo: -169, LngHi: -66},
		"brazil-rural": {LatLo: -25, LatHi: -3, LngLo: -61, LngHi: -40},
		"taipei-dense": {LatLo: 24.4, LatHi: 25.6, LngLo: 121.0, LngHi: 122.2},
	}
	rng := rand.New(rand.NewSource(5))
	randomBox := func() Box {
		h := math.Min(180, rng.ExpFloat64()*20)
		w := math.Min(360, rng.ExpFloat64()*40)
		lat := -90 + rng.Float64()*(180-h)
		lng := -180 + rng.Float64()*(360-w)
		return Box{LatLo: lat, LatHi: lat + h, LngLo: lng, LngHi: lng + w}
	}
	for r := Resolution(3); r <= 5; r++ {
		full := newFullWalk(r)
		for name, box := range named {
			if got, want := walkBoxIDs(t, r, box, 2), full.in(box); !slices.Equal(got, want) {
				t.Errorf("res %d %s: culled walk has %d cells, full walk %d", r, name, len(got), len(want))
			}
		}
		for trial := 0; trial < 67; trial++ {
			box := randomBox()
			if got, want := walkBoxIDs(t, r, box, 1+trial%3), full.in(box); !slices.Equal(got, want) {
				t.Fatalf("res %d box %+v: culled walk has %d cells, full walk %d", r, box, len(got), len(want))
			}
		}
	}
}

// prefilterCounts walks every cell of the faces box reaches at r and
// reports how many lie in the box and how many pass its prefilter,
// failing on any in-box cell the prefilter rejects.
func prefilterCounts(t *testing.T, r Resolution, box Box) (in, passed int) {
	t.Helper()
	pre, n := box.prefilter(), r.Subdivisions()
	for f := 0; f < 20; f++ {
		if !box.mayReach(f, r) {
			continue
		}
		ForEachCellOnFace(r, f, func(id CellID) {
			i, j := id.Coords()
			v := vertexVec(f, n, i, j)
			ok := pre.mayContain(v)
			if ok {
				passed++
			}
			if box.Contains(v.LatLng()) {
				in++
				if !ok {
					t.Fatalf("res %d box %+v: prefilter rejects in-box cell %v at %v", r, box, id, v.LatLng())
				}
			}
		})
	}
	return in, passed
}

// TestPrefilterHasNoFalseNegatives: the prefilter passes every in-box
// cell of the faces a box reaches, for the named boxes at resolution 5
// and, at resolution 3, for boxes that touch a pole, span 180° of
// longitude or more, have zero height or width, or have cell centres
// on their edges. For the US box it passes at most 1.10× the in-box
// cells, so it cannot quietly become a no-op.
func TestPrefilterHasNoFalseNegatives(t *testing.T) {
	named := map[string]Box{
		"us":           {LatLo: 18, LatHi: 67, LngLo: -169, LngHi: -66},
		"brazil-rural": {LatLo: -25, LatHi: -3, LngLo: -61, LngHi: -40},
		"taipei-dense": {LatLo: 24.4, LatHi: 25.6, LngLo: 121.0, LngHi: 122.2},
	}
	for name, box := range named {
		if in, passed := prefilterCounts(t, 5, box); name == "us" && float64(passed) > 1.10*float64(in) {
			t.Errorf("us box: prefilter passes %d cells for %d in the box, want at most 1.10x", passed, in)
		}
	}

	full := newFullWalk(3)
	rng := rand.New(rand.NewSource(11))
	center := func() geo.LatLng { return full.centers[rng.Intn(len(full.centers))] }
	lngSpan := func(minW float64) (lo, hi float64) {
		w := minW + rng.Float64()*(360-minW)
		lo = -180 + rng.Float64()*(360-w)
		return lo, lo + w
	}
	var boxes []Box
	for trial := 0; trial < 40; trial++ {
		lo, hi := lngSpan(0)
		wideLo, wideHi := lngSpan(180)
		h := rng.Float64() * 60
		c, d := center(), center()
		boxes = append(boxes,
			Box{LatLo: 90 - h, LatHi: 90, LngLo: lo, LngHi: hi},                                          // north pole
			Box{LatLo: -90, LatHi: -90 + h, LngLo: lo, LngHi: hi},                                        // south pole
			Box{LatLo: -h, LatHi: h / 2, LngLo: wideLo, LngHi: wideHi},                                   // ≥180° wide
			Box{LatLo: c.Lat, LatHi: c.Lat, LngLo: math.Min(lo, c.Lng), LngHi: math.Max(hi, c.Lng)},      // zero height
			Box{LatLo: math.Max(-90, c.Lat-h), LatHi: math.Min(90, c.Lat+h), LngLo: c.Lng, LngHi: c.Lng}, // zero width
			Box{LatLo: math.Min(c.Lat, d.Lat), LatHi: math.Max(c.Lat, d.Lat), // centres on
				LngLo: math.Min(c.Lng, d.Lng), LngHi: math.Max(c.Lng, d.Lng)}, // every edge
		)
	}
	for k, box := range boxes {
		in, _ := prefilterCounts(t, 3, box)
		if in != len(full.in(box)) {
			t.Fatalf("res 3 box %+v: reachable faces hold %d in-box cells, the globe %d", box, in, len(full.in(box)))
		}
		if k%6 >= 3 && in == 0 { // the boxes built on a cell centre hold it
			t.Fatalf("res 3 box %+v holds no cell", box)
		}
	}
}

// TestWalkBoxCullsFaces checks the culling actually skips faces: cells
// of the US frame lie on 6 of the 20 faces, and the circumradius test
// keeps one more (face 4, whose circumcircle but not triangle reaches
// the frame).
func TestWalkBoxCullsFaces(t *testing.T) {
	us := Box{LatLo: 18, LatHi: 67, LngLo: -169, LngHi: -66}
	reached := 0
	for f := 0; f < 20; f++ {
		if us.mayReach(f, 5) {
			reached++
		}
	}
	if reached != 7 {
		t.Errorf("US frame reaches %d faces, want 7", reached)
	}
}

// TestBoxAngularDistance checks the point-to-box distance against a
// dense sampling of the box boundary.
func TestBoxAngularDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		lat := -80 + rng.Float64()*140
		lng := -180 + rng.Float64()*300
		box := Box{LatLo: lat, LatHi: lat + rng.Float64()*20, LngLo: lng, LngHi: lng + rng.Float64()*60}
		p := geo.LatLng{Lat: -90 + rng.Float64()*180, Lng: -180 + rng.Float64()*360}
		got := box.angularDistance(p)
		if box.Contains(p) {
			if got != 0 {
				t.Fatalf("distance %v from inside point %v to %+v", got, p, box)
			}
			continue
		}
		want := math.Inf(1)
		const steps = 400
		for k := 0; k <= steps; k++ {
			f := float64(k) / steps
			la := box.LatLo + f*(box.LatHi-box.LatLo)
			ln := box.LngLo + f*(box.LngHi-box.LngLo)
			for _, q := range []geo.LatLng{
				{Lat: la, Lng: box.LngLo}, {Lat: la, Lng: box.LngHi},
				{Lat: box.LatLo, Lng: ln}, {Lat: box.LatHi, Lng: ln},
			} {
				want = math.Min(want, geo.AngularDistance(p, q))
			}
		}
		// The sampled boundary overestimates the distance by at most
		// half a sampling step; the formula must never exceed it.
		if got > want+1e-12 || got < want-geo.Radians(60.0/steps) {
			t.Fatalf("distance from %v to %+v: got %v, sampled %v", p, box, got, want)
		}
	}
}

func TestWalkBoxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := WalkBox(ctx, 3, Box{LatLo: -10, LatHi: 10, LngLo: -10, LngHi: 10}, 1,
		func(*int, CellID, geo.LatLng) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WalkBox on a cancelled ctx: %v, want context.Canceled", err)
	}
}
