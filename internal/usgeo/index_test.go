package usgeo

// Oracles for the bucket-indexed lookups: StateIndexAt, CountyAt and
// CountyIndexAt against the linear scans they replaced, on lattices,
// on every frame, tile and bucket boundary one ulp either side, in
// overlaps, just outside the tilings, and at NaN and ±Inf.

import (
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"leodivide/internal/geo"
)

// linearStateAt is the StateAt the index replaced: every frame in table
// order, the nearest center winning by strict comparison.
func linearStateAt(p geo.LatLng) (State, bool) {
	best := State{}
	bestDist := math.Inf(1)
	found := false
	for _, s := range states {
		if !s.Contains(p) {
			continue
		}
		d := geo.DistanceKm(p, s.Center())
		if d < bestDist {
			best, bestDist, found = s, d, true
		}
	}
	return best, found
}

// linearCountyIndex is the county lookup the index replaced: the first
// tile containing p, else the tile whose center is nearest.
func linearCountyIndex(tiles []County, p geo.LatLng) int {
	for i, c := range tiles {
		if c.Contains(p) {
			return i
		}
	}
	best, bestD := 0, math.Inf(1)
	for i, c := range tiles {
		if d := geo.DistanceKm(p, c.Center()); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// checkState compares every indexed lookup at p with its linear
// reference, for the state p resolves to. The linear CountyAt is the
// linear county scan's result when that tile contains p. (No
// t.Helper: it would dominate the lattice's run time; every message
// names the point.)
func checkState(t *testing.T, p geo.LatLng) {
	want, wantOK := linearStateAt(p)
	i, ok := StateIndexAt(p)
	if ok != wantOK || (ok && states[i] != want) {
		t.Fatalf("StateIndexAt(%v) = %d/%v, linear scan %s/%v", p, i, ok, want.Abbr, wantOK)
	}
	if got, ok := StateAt(p); ok != wantOK || got != want {
		t.Fatalf("StateAt(%v) = %s/%v, linear scan %s/%v", p, got.Abbr, ok, want.Abbr, wantOK)
	}
	var wantC County
	if ok {
		tiles := countyTiles()[i]
		k := linearCountyIndex(tiles, p)
		if got := CountyIndexAt(i, p); got != k {
			t.Fatalf("CountyIndexAt(%s, %v) = %d, linear scan %d", want.Abbr, p, got, k)
		}
		if tiles[k].Contains(p) {
			wantC = tiles[k]
		}
	}
	if got, ok := CountyAt(p); ok != (wantC != County{}) || got != wantC {
		t.Fatalf("CountyAt(%v) = %s/%v, linear scan %s", p, got.FIPS, ok, wantC.FIPS)
	}
}

// checkCounty compares CountyIndexAt(i, p) with the linear scan over
// state i's tiles, whether or not p lies in state i.
func checkCounty(t *testing.T, i int, p geo.LatLng) {
	if got, want := CountyIndexAt(i, p), linearCountyIndex(countyTiles()[i], p); got != want {
		t.Fatalf("CountyIndexAt(%s, %v) = %d, linear scan %d", states[i].Abbr, p, got, want)
	}
}

// around returns v and its neighbours one ulp either side.
func around(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// TestStatesTableInFIPSOrder: the table is already in States() order,
// which the lookups' indexes rely on.
func TestStatesTableInFIPSOrder(t *testing.T) {
	if !slices.Equal(states, States()) {
		t.Fatal("the states table is not in FIPS order")
	}
}

// TestIndexedLookupsMatchLattice compares the lookups on a 0.05°
// lattice over the state index's box (0.15° with -short).
func TestIndexedLookupsMatchLattice(t *testing.T) {
	x := stateIndex()
	step := 0.05
	if testing.Short() {
		step = 0.15
	}
	for u := 0; float64(u)*step <= float64(x.rows); u++ {
		for v := 0; float64(v)*step <= float64(x.cols); v++ {
			checkState(t, geo.LatLng{Lat: x.latLo + float64(u)*step, Lng: x.lngLo + float64(v)*step})
		}
	}
}

// TestIndexedLookupsMatchBoundaries compares the lookups on every
// frame and tile corner and along every edge, on every integer-degree
// bucket boundary, each one ulp either side, and for every county
// point also against each state's tiling, which puts many of them just
// outside it (the nearest-center fallback).
func TestIndexedLookupsMatchBoundaries(t *testing.T) {
	edges := func(latLo, latHi, lngLo, lngHi float64, parts int) []geo.LatLng {
		var lats, lngs []float64
		for k := 0; k <= parts; k++ {
			f := float64(k) / float64(parts)
			lats = append(lats, around(latLo+f*(latHi-latLo))...)
			lngs = append(lngs, around(lngLo+f*(lngHi-lngLo))...)
		}
		lats = append(lats, around(latHi)...) // latLo+1*(latHi-latLo) may round off latHi
		lngs = append(lngs, around(lngHi)...)
		var out []geo.LatLng
		for _, lat := range lats {
			for _, lng := range lngs {
				out = append(out, geo.LatLng{Lat: lat, Lng: lng})
			}
		}
		return out
	}
	for i, s := range states {
		for _, p := range edges(s.LatLo, s.LatHi, s.LngLo, s.LngHi, 8) {
			checkState(t, p)
			checkCounty(t, i, p)
		}
		for _, c := range CountyTiles(s) {
			for _, p := range edges(c.LatLo, c.LatHi, c.LngLo, c.LngHi, 2) {
				checkState(t, p)
				checkCounty(t, i, p)
			}
		}
	}
	x := stateIndex()
	for lat := x.latLo - 1; lat <= x.latLo+float64(x.rows)+1; lat++ {
		for lng := x.lngLo - 1; lng <= x.lngLo+float64(x.cols)+1; lng++ {
			for _, la := range around(lat) {
				for _, ln := range around(lng) {
					checkState(t, geo.LatLng{Lat: la, Lng: ln})
				}
			}
		}
	}
}

// TestIndexedLookupsMatchOverlaps compares the lookups on a lattice
// over every overlap of two frames, where the nearest center decides.
func TestIndexedLookupsMatchOverlaps(t *testing.T) {
	overlaps := 0
	for a := range states {
		for b := a + 1; b < len(states); b++ {
			sa, sb := states[a], states[b]
			latLo, latHi := math.Max(sa.LatLo, sb.LatLo), math.Min(sa.LatHi, sb.LatHi)
			lngLo, lngHi := math.Max(sa.LngLo, sb.LngLo), math.Min(sa.LngHi, sb.LngHi)
			if latLo > latHi || lngLo > lngHi {
				continue
			}
			overlaps++
			for u := 0; u <= 8; u++ {
				for v := 0; v <= 8; v++ {
					p := geo.LatLng{Lat: latLo + float64(u)/8*(latHi-latLo), Lng: lngLo + float64(v)/8*(lngHi-lngLo)}
					checkState(t, p)
					checkCounty(t, a, p)
					checkCounty(t, b, p)
				}
			}
		}
	}
	if overlaps < 20 {
		t.Fatalf("only %d overlapping frame pairs: the overlap oracle lost its subject", overlaps)
	}
}

// TestIndexedLookupsNonFinite: NaN and ±Inf coordinates are in no
// state and no county, and the county fallback agrees with the linear
// scan on them.
func TestIndexedLookupsNonFinite(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var pts []geo.LatLng
	for _, v := range odd {
		pts = append(pts, geo.LatLng{Lat: v, Lng: -100}, geo.LatLng{Lat: 40, Lng: v})
		for _, w := range odd {
			pts = append(pts, geo.LatLng{Lat: v, Lng: w})
		}
	}
	for _, p := range pts {
		if i, ok := StateIndexAt(p); ok {
			t.Errorf("StateIndexAt(%v) = %d, want no state", p, i)
		}
		if c, ok := CountyAt(p); ok {
			t.Errorf("CountyAt(%v) = %s, want no county", p, c.FIPS)
		}
		checkState(t, p)
		for i := range states {
			checkCounty(t, i, p)
		}
	}
}

// TestBucketIndexSize pins the process-wide index memory: the state
// index and the fifty county indexes, headers included, together stay
// within 128 KB.
func TestBucketIndexSize(t *testing.T) {
	size := func(x *bucketIndex) int {
		return int(unsafe.Sizeof(*x)) + 4*len(x.offsets) + 2*len(x.items)
	}
	total := size(stateIndex())
	for i := range countyIndexes() {
		total += size(&countyIndexes()[i])
	}
	t.Logf("bucket indexes hold %d bytes", total)
	if total > 128<<10 {
		t.Errorf("bucket indexes hold %d bytes, want at most %d", total, 128<<10)
	}
}

// TestIndexesConcurrentFirstUse: lookups racing to build both indexes
// on first use, as the grid walk's workers do, build each once and all
// agree with the linear scans.
func TestIndexesConcurrentFirstUse(t *testing.T) {
	savedStates, savedCounties := stateIndex, countyIndexes
	t.Cleanup(func() { stateIndex, countyIndexes = savedStates, savedCounties })
	var stateBuilds, countyBuilds int
	stateIndex = sync.OnceValue(func() *bucketIndex { stateBuilds++; return buildStateIndex() })
	countyIndexes = sync.OnceValue(func() []bucketIndex { countyBuilds++; return buildCountyIndexes() })
	const workers = 8
	got := make([][2]int, workers)
	var wg sync.WaitGroup
	p := geo.LatLng{Lat: 39.74, Lng: -104.99} // Denver
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i, _ := StateIndexAt(p)
			got[w] = [2]int{i, CountyIndexAt(i, p)}
		}(w)
	}
	wg.Wait()
	want, _ := linearStateAt(p)
	wantC := linearCountyIndex(countyTiles()[slices.Index(states, want)], p)
	for w, g := range got {
		if states[g[0]] != want || g[1] != wantC {
			t.Fatalf("worker %d: state %d county %d, want %s county %d", w, g[0], g[1], want.Abbr, wantC)
		}
	}
	if stateBuilds != 1 || countyBuilds != 1 {
		t.Fatalf("indexes built %d and %d times, want once each", stateBuilds, countyBuilds)
	}
}
