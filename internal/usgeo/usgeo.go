// Package usgeo is the United States geography substrate: the fifty
// states with approximate geographic frames, deterministic synthetic
// county subdivision, and point sampling. It exists so the synthetic
// Broadband Data Collection can place locations at plausible US
// coordinates and attach them to county-level income records without
// shipping (or depending on) TIGER shapefiles.
//
// State frames are coarse bounding quadrilaterals — adequate for a model
// whose geographic resolution is the ~250 km² service cell, and fully
// documented as a substitution in DESIGN.md.
package usgeo

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"leodivide/internal/geo"
)

// State describes one US state frame.
type State struct {
	// Abbr is the USPS abbreviation, e.g. "CA".
	Abbr string
	// Name is the full state name.
	Name string
	// FIPS is the two-digit state FIPS code.
	FIPS string
	// LatLo, LatHi, LngLo, LngHi bound the state's frame.
	LatLo, LatHi, LngLo, LngHi float64
	// Counties is the approximate real number of counties.
	Counties int
	// RuralWeight is the state's share weight when distributing
	// un(der)served locations (larger = more rural unserved demand).
	RuralWeight float64
}

// Center returns the frame's central coordinate.
func (s State) Center() geo.LatLng {
	return geo.LatLng{Lat: (s.LatLo + s.LatHi) / 2, Lng: (s.LngLo + s.LngHi) / 2}
}

// Contains reports whether p falls inside the state frame.
func (s State) Contains(p geo.LatLng) bool {
	return p.Lat >= s.LatLo && p.Lat <= s.LatHi && p.Lng >= s.LngLo && p.Lng <= s.LngHi
}

// states lists the fifty states with coarse frames, real county counts,
// and rural weights loosely tracking each state's share of US unserved
// broadband locations (mountain West, Appalachia, the Deep South and
// Alaska weigh heaviest relative to population).
var states = []State{
	{"AL", "Alabama", "01", 30.2, 35.0, -88.5, -84.9, 67, 2.6},
	// Alaska's frame is trimmed to the latitudes where nearly all of its
	// communities (and broadband-serviceable locations) sit; the far
	// North Slope is excluded from the sampling frame.
	{"AK", "Alaska", "02", 54.5, 66.5, -168.0, -130.0, 30, 1.8},
	{"AZ", "Arizona", "04", 31.3, 37.0, -114.8, -109.0, 15, 2.2},
	{"AR", "Arkansas", "05", 33.0, 36.5, -94.6, -89.6, 75, 2.4},
	{"CA", "California", "06", 32.5, 42.0, -124.4, -114.1, 58, 2.8},
	{"CO", "Colorado", "08", 37.0, 41.0, -109.1, -102.0, 64, 1.6},
	{"CT", "Connecticut", "09", 41.0, 42.1, -73.7, -71.8, 8, 0.3},
	{"DE", "Delaware", "10", 38.4, 39.8, -75.8, -75.0, 3, 0.2},
	{"FL", "Florida", "12", 25.1, 31.0, -87.6, -80.0, 67, 2.0},
	{"GA", "Georgia", "13", 30.4, 35.0, -85.6, -80.8, 159, 2.6},
	{"HI", "Hawaii", "15", 18.9, 22.2, -160.3, -154.8, 5, 0.4},
	{"ID", "Idaho", "16", 42.0, 49.0, -117.2, -111.0, 44, 1.5},
	{"IL", "Illinois", "17", 37.0, 42.5, -91.5, -87.0, 102, 1.8},
	{"IN", "Indiana", "18", 37.8, 41.8, -88.1, -84.8, 92, 1.5},
	{"IA", "Iowa", "19", 40.4, 43.5, -96.6, -90.1, 99, 1.5},
	{"KS", "Kansas", "20", 37.0, 40.0, -102.1, -94.6, 105, 1.4},
	{"KY", "Kentucky", "21", 36.5, 39.1, -89.6, -81.9, 120, 2.8},
	{"LA", "Louisiana", "22", 29.0, 33.0, -94.0, -89.0, 64, 2.4},
	{"ME", "Maine", "23", 43.1, 47.5, -71.1, -66.9, 16, 1.0},
	{"MD", "Maryland", "24", 37.9, 39.7, -79.5, -75.0, 24, 0.5},
	{"MA", "Massachusetts", "25", 41.2, 42.9, -73.5, -69.9, 14, 0.4},
	{"MI", "Michigan", "26", 41.7, 47.5, -90.4, -82.4, 83, 2.2},
	{"MN", "Minnesota", "27", 43.5, 49.4, -97.2, -89.5, 87, 1.6},
	{"MS", "Mississippi", "28", 30.2, 35.0, -91.7, -88.1, 82, 3.0},
	{"MO", "Missouri", "29", 36.0, 40.6, -95.8, -89.1, 115, 2.4},
	{"MT", "Montana", "30", 44.4, 49.0, -116.1, -104.0, 56, 1.6},
	{"NE", "Nebraska", "31", 40.0, 43.0, -104.1, -95.3, 93, 1.2},
	{"NV", "Nevada", "32", 35.0, 42.0, -120.0, -114.0, 17, 1.0},
	{"NH", "New Hampshire", "33", 42.7, 45.3, -72.6, -70.6, 10, 0.5},
	{"NJ", "New Jersey", "34", 38.9, 41.4, -75.6, -73.9, 21, 0.3},
	{"NM", "New Mexico", "35", 31.3, 37.0, -109.1, -103.0, 33, 2.2},
	{"NY", "New York", "36", 40.5, 45.0, -79.8, -71.9, 62, 1.8},
	{"NC", "North Carolina", "37", 33.8, 36.6, -84.3, -75.5, 100, 2.6},
	{"ND", "North Dakota", "38", 45.9, 49.0, -104.1, -96.6, 53, 0.9},
	{"OH", "Ohio", "39", 38.4, 42.0, -84.8, -80.5, 88, 1.8},
	{"OK", "Oklahoma", "40", 33.6, 37.0, -103.0, -94.4, 77, 2.2},
	{"OR", "Oregon", "41", 42.0, 46.3, -124.6, -116.5, 36, 1.5},
	{"PA", "Pennsylvania", "42", 39.7, 42.3, -80.5, -74.7, 67, 2.0},
	{"RI", "Rhode Island", "44", 41.1, 42.0, -71.9, -71.1, 5, 0.1},
	{"SC", "South Carolina", "45", 32.0, 35.2, -83.4, -78.5, 46, 1.8},
	{"SD", "South Dakota", "46", 42.5, 45.9, -104.1, -96.4, 66, 1.1},
	{"TN", "Tennessee", "47", 35.0, 36.7, -90.3, -81.6, 95, 2.6},
	{"TX", "Texas", "48", 25.8, 36.5, -106.6, -93.5, 254, 3.4},
	{"UT", "Utah", "49", 37.0, 42.0, -114.1, -109.0, 29, 1.2},
	{"VT", "Vermont", "50", 42.7, 45.0, -73.4, -71.5, 14, 0.6},
	{"VA", "Virginia", "51", 36.5, 39.5, -83.7, -75.2, 133, 2.2},
	{"WA", "Washington", "53", 45.5, 49.0, -124.8, -116.9, 39, 1.4},
	{"WV", "West Virginia", "54", 37.2, 40.6, -82.6, -77.7, 55, 2.8},
	{"WI", "Wisconsin", "55", 42.5, 47.1, -92.9, -86.8, 72, 1.8},
	{"WY", "Wyoming", "56", 41.0, 45.0, -111.1, -104.1, 23, 1.2},
}

// States returns all fifty state frames, sorted by FIPS code.
func States() []State {
	out := make([]State, len(states))
	copy(out, states)
	sort.Slice(out, func(i, j int) bool { return out[i].FIPS < out[j].FIPS })
	return out
}

// ByAbbr returns the state with the given USPS abbreviation.
func ByAbbr(abbr string) (State, error) {
	for _, s := range states {
		if s.Abbr == abbr {
			return s, nil
		}
	}
	return State{}, fmt.Errorf("usgeo: unknown state %q", abbr)
}

// StateAt returns the state whose frame contains p. When frames overlap
// (coarse rectangles do), the state whose center is nearest wins, the
// first in FIPS order on ties. It is StateIndexAt returning the State.
func StateAt(p geo.LatLng) (State, bool) {
	i, ok := StateIndexAt(p)
	if !ok {
		return State{}, false
	}
	return states[i], true
}

// StateIndexAt is StateAt returning the state's index in States(). It
// scans only the frames listed in p's 1° bucket, in table order, with
// the same strict nearest-center comparison as a scan of all fifty, so
// it picks the same state. Distances are measured only when a second
// frame contains p: the first always wins a comparison with no rival.
func StateIndexAt(p geo.LatLng) (int, bool) {
	best, bestDist, measured := -1, 0.0, false
	for _, k := range stateIndex().candidates(p) {
		s := &states[k]
		if !s.Contains(p) {
			continue
		}
		if best < 0 {
			best = int(k)
			continue
		}
		if !measured {
			bestDist, measured = geo.DistanceKm(p, states[best].Center()), true
		}
		if d := geo.DistanceKm(p, s.Center()); d < bestDist {
			best, bestDist = int(k), d
		}
	}
	return best, best >= 0
}

// bucketIndex lists, for each bucket of a uniform lat/lng grid, the
// rectangles that may contain a point in it, in CSR layout: bucket
// b = row*cols + col lists items[offsets[b]:offsets[b+1]], in ascending
// rectangle order. A point's row is floor((lat-latLo)*latK) clamped to
// [0, rows), and its column likewise; both maps are monotone, so a
// rectangle listed in the buckets of its own corners is listed in the
// bucket of every point it contains. Points off the grid clamp to an
// edge bucket, where the caller's exact Contains test rejects them.
type bucketIndex struct {
	latLo, lngLo, latK, lngK float64
	rows, cols               int
	offsets                  []int32
	items                    []uint16
}

// rect is a rectangle's lat/lng bounds, as State and County hold them.
type rect struct{ latLo, latHi, lngLo, lngHi float64 }

// newBucketIndex indexes rects over a rows × cols grid whose origin is
// (latLo, lngLo) and whose buckets span 1/latK by 1/lngK degrees.
func newBucketIndex(rects []rect, latLo, lngLo, latK, lngK float64, rows, cols int) bucketIndex {
	x := bucketIndex{latLo: latLo, lngLo: lngLo, latK: latK, lngK: lngK, rows: rows, cols: cols,
		offsets: make([]int32, rows*cols+1)}
	each := func(fn func(b, k int)) {
		for k, r := range rects {
			r0, r1 := x.row(r.latLo), x.row(r.latHi)
			c0, c1 := x.col(r.lngLo), x.col(r.lngHi)
			for row := r0; row <= r1; row++ {
				for col := c0; col <= c1; col++ {
					fn(row*cols+col, k)
				}
			}
		}
	}
	each(func(b, _ int) { x.offsets[b+1]++ })
	for b := 1; b < len(x.offsets); b++ {
		x.offsets[b] += x.offsets[b-1]
	}
	x.items = make([]uint16, x.offsets[len(x.offsets)-1])
	fill := slices.Clone(x.offsets[:rows*cols])
	each(func(b, k int) {
		x.items[fill[b]] = uint16(k)
		fill[b]++
	})
	return x
}

// clampBucket is floor((v-lo)*k) clamped to [0, n); NaN maps to 0.
func clampBucket(v, lo, k float64, n int) int {
	t := math.Floor((v - lo) * k)
	switch {
	case !(t >= 0):
		return 0
	case t >= float64(n):
		return n - 1
	}
	return int(t)
}

func (x *bucketIndex) row(lat float64) int { return clampBucket(lat, x.latLo, x.latK, x.rows) }
func (x *bucketIndex) col(lng float64) int { return clampBucket(lng, x.lngLo, x.lngK, x.cols) }

// candidates returns the rectangles listed in p's bucket.
func (x *bucketIndex) candidates(p geo.LatLng) []uint16 {
	b := x.row(p.Lat)*x.cols + x.col(p.Lng)
	return x.items[x.offsets[b]:x.offsets[b+1]]
}

// stateIndex buckets the state frames by whole degree over the frames'
// bounding box. It is built on first use.
var stateIndex = sync.OnceValue(buildStateIndex)

func buildStateIndex() *bucketIndex {
	rects := make([]rect, len(states))
	latLo, latHi, lngLo, lngHi := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for i, s := range states {
		rects[i] = rect{s.LatLo, s.LatHi, s.LngLo, s.LngHi}
		latLo, latHi = math.Min(latLo, s.LatLo), math.Max(latHi, s.LatHi)
		lngLo, lngHi = math.Min(lngLo, s.LngLo), math.Max(lngHi, s.LngHi)
	}
	latLo, lngLo = math.Floor(latLo), math.Floor(lngLo)
	x := newBucketIndex(rects, latLo, lngLo, 1, 1,
		int(math.Floor(latHi)-latLo)+1, int(math.Floor(lngHi)-lngLo)+1)
	return &x
}

// County is a synthetic county: a deterministic tile of its state's
// frame with a FIPS-style identifier.
type County struct {
	// FIPS is the 5-digit county identifier (state FIPS + 3-digit
	// county sequence).
	FIPS string
	// StateAbbr is the owning state's USPS abbreviation.
	StateAbbr string
	// Name is a synthetic county name.
	Name string
	// LatLo, LatHi, LngLo, LngHi bound the county tile.
	LatLo, LatHi, LngLo, LngHi float64
}

// Center returns the county tile's central coordinate.
func (c County) Center() geo.LatLng {
	return geo.LatLng{Lat: (c.LatLo + c.LatHi) / 2, Lng: (c.LngLo + c.LngHi) / 2}
}

// Contains reports whether p falls inside the county tile.
func (c County) Contains(p geo.LatLng) bool {
	return p.Lat >= c.LatLo && p.Lat <= c.LatHi && p.Lng >= c.LngLo && p.Lng <= c.LngHi
}

// Counties tiles the state frame into its real county count using a
// near-square grid, producing deterministic synthetic counties ordered
// by FIPS. The result is the caller's own copy.
func Counties(s State) []County {
	return slices.Clone(CountyTiles(s))
}

// CountyTiles is Counties without the copy: for the fifty table states
// it returns the tiles from a process-wide table built once, which
// callers must not modify; any other State is tiled afresh.
func CountyTiles(s State) []County {
	tiles := countyTiles()
	for i := range states {
		if states[i] == s {
			return tiles[i]
		}
	}
	return tileCounties(s)
}

// countyTiles holds every table state's county tiles, aligned with
// states. Building it formats two strings per county, so it runs once.
var countyTiles = sync.OnceValue(func() [][]County {
	out := make([][]County, len(states))
	for i, s := range states {
		out[i] = tileCounties(s)
	}
	return out
})

// tileGrid returns the number of county tiles of s and the cols × rows
// grid they fill: at least that many cells, with an aspect close to
// the frame's.
func tileGrid(s State) (n, cols, rows int) {
	n = max(s.Counties, 1)
	aspect := (s.LngHi - s.LngLo) / math.Max(s.LatHi-s.LatLo, 1e-9)
	cols = int(math.Max(1, math.Round(math.Sqrt(float64(n)*aspect))))
	return n, cols, (n + cols - 1) / cols
}

// tileCounties tiles one state frame (see Counties).
func tileCounties(s State) []County {
	n, cols, rows := tileGrid(s)
	out := make([]County, 0, n)
	for idx := 0; idx < n; idx++ {
		r := idx / cols
		c := idx % cols
		latStep := (s.LatHi - s.LatLo) / float64(rows)
		lngStep := (s.LngHi - s.LngLo) / float64(cols)
		out = append(out, County{
			FIPS:      fmt.Sprintf("%s%03d", s.FIPS, idx*2+1), // odd codes, like real FIPS
			StateAbbr: s.Abbr,
			Name:      fmt.Sprintf("%s County %d", s.Abbr, idx+1),
			LatLo:     s.LatLo + latStep*float64(r),
			LatHi:     s.LatLo + latStep*float64(r+1),
			LngLo:     s.LngLo + lngStep*float64(c),
			LngHi:     s.LngLo + lngStep*float64(c+1),
		})
	}
	// The grid may have more tiles than counties; stretch the last
	// county over the remainder of its row so the tiles cover the whole
	// frame.
	if n%cols != 0 {
		out[n-1].LngHi = s.LngHi
	}
	return out
}

// AllCounties returns every synthetic county in the country, sorted by
// FIPS.
func AllCounties() []County {
	var out []County
	for _, s := range States() {
		out = append(out, CountyTiles(s)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FIPS < out[j].FIPS })
	return out
}

// CountyAt returns the county containing p, searching the containing
// state's tiles.
func CountyAt(p geo.LatLng) (County, bool) {
	i, ok := StateIndexAt(p)
	if !ok {
		return County{}, false
	}
	if k := countyContaining(i, p); k >= 0 {
		return countyTiles()[i][k], true
	}
	return County{}, false
}

// CountyIndexAt returns the index, in CountyTiles(States()[state]), of
// the first tile containing p or, when p falls just outside the
// state's tiling, of the tile whose center is nearest (the first such
// on ties).
func CountyIndexAt(state int, p geo.LatLng) int {
	if k := countyContaining(state, p); k >= 0 {
		return k
	}
	best, bestD := 0, math.Inf(1)
	for i, c := range countyTiles()[state] {
		if d := geo.DistanceKm(p, c.Center()); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// countyContaining returns the index of the first of state i's tiles
// containing p, or -1. The candidates of p's bucket ascend and include
// every tile containing p, so the first that contains it is the first
// of all the tiles.
func countyContaining(i int, p geo.LatLng) int {
	tiles := countyTiles()[i]
	for _, k := range countyIndexes()[i].candidates(p) {
		if tiles[k].Contains(p) {
			return int(k)
		}
	}
	return -1
}

// countyIndexes buckets each table state's county tiles over the
// state's frame, one bucket per cell of the tiling's grid, so a bucket
// lists the few tiles that touch it. It is built on first use.
var countyIndexes = sync.OnceValue(buildCountyIndexes)

func buildCountyIndexes() []bucketIndex {
	out := make([]bucketIndex, len(states))
	for i, s := range states {
		tiles := countyTiles()[i]
		rects := make([]rect, len(tiles))
		for k, c := range tiles {
			rects[k] = rect{c.LatLo, c.LatHi, c.LngLo, c.LngHi}
		}
		_, cols, rows := tileGrid(s)
		out[i] = newBucketIndex(rects, s.LatLo, s.LngLo,
			float64(rows)/(s.LatHi-s.LatLo), float64(cols)/(s.LngHi-s.LngLo), rows, cols)
	}
	return out
}

// TotalRuralWeight sums all states' rural weights.
func TotalRuralWeight() float64 {
	t := 0.0
	for _, s := range states {
		t += s.RuralWeight
	}
	return t
}

// GatewaySite is one satellite ground-station (gateway) location.
type GatewaySite struct {
	Name string
	Pos  geo.LatLng
}

// GatewaySites returns a synthetic US gateway network modelled on the
// publicly mapped Starlink ground-station footprint: roughly three
// dozen sites spread so that most of CONUS, southern Alaska and Hawaii
// are within one coverage radius of a gateway. Used by the bent-pipe
// simulation mode, where a satellite can only serve users while it
// also sees a gateway.
func GatewaySites() []GatewaySite {
	return []GatewaySite{
		{"North Bend WA", geo.LatLng{Lat: 47.5, Lng: -121.8}},
		{"Merrillan WI", geo.LatLng{Lat: 44.4, Lng: -90.8}},
		{"Redmond OR", geo.LatLng{Lat: 44.3, Lng: -121.2}},
		{"Boca Chica TX", geo.LatLng{Lat: 26.0, Lng: -97.2}},
		{"Sanford FL", geo.LatLng{Lat: 28.8, Lng: -81.3}},
		{"Greenville PA", geo.LatLng{Lat: 41.4, Lng: -80.4}},
		{"Kalama WA", geo.LatLng{Lat: 46.0, Lng: -122.8}},
		{"Conrad MT", geo.LatLng{Lat: 48.2, Lng: -111.9}},
		{"Colburn ID", geo.LatLng{Lat: 48.4, Lng: -116.5}},
		{"Cheney KS", geo.LatLng{Lat: 37.6, Lng: -97.8}},
		{"Slidell LA", geo.LatLng{Lat: 30.3, Lng: -89.8}},
		{"Hawthorne CA", geo.LatLng{Lat: 33.9, Lng: -118.3}},
		{"Baxley GA", geo.LatLng{Lat: 31.8, Lng: -82.3}},
		{"Hitterdal MN", geo.LatLng{Lat: 46.9, Lng: -96.3}},
		{"Litchfield CT", geo.LatLng{Lat: 41.7, Lng: -73.2}},
		{"Loring ME", geo.LatLng{Lat: 46.9, Lng: -68.0}},
		{"Billings MT", geo.LatLng{Lat: 45.8, Lng: -108.5}},
		{"Tulsa OK", geo.LatLng{Lat: 36.2, Lng: -95.9}},
		{"Lubbock TX", geo.LatLng{Lat: 33.6, Lng: -101.9}},
		{"Albuquerque NM", geo.LatLng{Lat: 35.1, Lng: -106.6}},
		{"Las Vegas NV", geo.LatLng{Lat: 36.2, Lng: -115.1}},
		{"Salt Lake City UT", geo.LatLng{Lat: 40.8, Lng: -111.9}},
		{"Denver CO", geo.LatLng{Lat: 39.7, Lng: -105.0}},
		{"Bismarck ND", geo.LatLng{Lat: 46.8, Lng: -100.8}},
		{"North Platte NE", geo.LatLng{Lat: 41.1, Lng: -100.8}},
		{"Columbus OH", geo.LatLng{Lat: 40.0, Lng: -83.0}},
		{"Nashville TN", geo.LatLng{Lat: 36.2, Lng: -86.8}},
		{"Charlotte NC", geo.LatLng{Lat: 35.2, Lng: -80.8}},
		{"Richmond VA", geo.LatLng{Lat: 37.5, Lng: -77.5}},
		{"Phoenix AZ", geo.LatLng{Lat: 33.4, Lng: -112.1}},
		{"Boise ID", geo.LatLng{Lat: 43.6, Lng: -116.2}},
		{"Fresno CA", geo.LatLng{Lat: 36.7, Lng: -119.8}},
		{"Fairbanks AK", geo.LatLng{Lat: 64.8, Lng: -147.7}},
		{"Anchorage AK", geo.LatLng{Lat: 61.2, Lng: -149.9}},
		{"Ketchikan AK", geo.LatLng{Lat: 55.3, Lng: -131.6}},
		{"Kahului HI", geo.LatLng{Lat: 20.9, Lng: -156.4}},
	}
}
