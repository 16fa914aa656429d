package region

// Synthetic regions: deterministic seeded geographies declared as data
// (SyntheticSpec) rather than code. The generator mirrors the BDC
// idiom exactly — peaks pinned first, body counts from an anchored
// shape function, candidate sites drawn by a serial seeded shuffle,
// counts attached through rng.Perm, cells sorted by ID — so synthetic
// output is byte-identical at every worker count for the same reasons
// the US pipeline is: every RNG decision runs serially in a fixed
// order, and the only fan-out (grid enumeration) is RNG-free and
// collected in canonical face order.
//
// The body-count rule differs from BDC in one deliberate way: the
// number of demand cells is fixed by the spec instead of derived from
// the total, and the total is split over those cells proportionally to
// the anchored shape (largest-remainder rounding, minimum 1). That
// makes cell *sites* a function of the seed alone — scaling the total
// rescales per-cell counts over the same geography — which is the
// demand-doubling invariant the metamorphic suite pins.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
	"leodivide/internal/par"
)

// DensityAnchor pins the synthetic per-cell demand shape at one
// quantile: cell k of n receives a share proportional to the shape
// evaluated at (k+0.5)/n, interpolated log-linearly between anchors.
type DensityAnchor struct {
	Q      float64 `json:"q"`
	Weight float64 `json:"weight"`
}

// SyntheticPeak pins one head cell at a fixed geographic anchor, like
// bdc.PeakCell.
type SyntheticPeak struct {
	Locations int     `json:"locations"`
	LatDeg    float64 `json:"lat_deg"`
	LngDeg    float64 `json:"lng_deg"`
}

// SyntheticSpec declares a synthetic region: a lat/lng demand
// footprint on the hexgrid, a total location count with an anchored
// per-cell shape, optional pinned peaks, and an income distribution
// over synthetic districts. Validate a spec with Validate before
// generating.
type SyntheticSpec struct {
	// Key is the canonical lowercase identifier (scenario selectors,
	// cache keys); Name and Description are for listings.
	Key         string `json:"key"`
	Name        string `json:"name"`
	Description string `json:"description"`

	// Resolution is the service-cell grid resolution.
	Resolution hexgrid.Resolution `json:"resolution"`

	// The demand footprint: cells whose centers fall in this box are
	// candidates. Latitudes in [-90, 90], longitudes in [-180, 180],
	// min strictly below max.
	LatMinDeg float64 `json:"lat_min_deg"`
	LatMaxDeg float64 `json:"lat_max_deg"`
	LngMinDeg float64 `json:"lng_min_deg"`
	LngMaxDeg float64 `json:"lng_max_deg"`

	// TotalLocations is the region's un(der)served total at scale 1;
	// Cells is the fixed number of body demand cells the total spreads
	// over.
	TotalLocations int `json:"total_locations"`
	Cells          int `json:"cells"`

	// DensityAnchors shape the per-cell count distribution (strictly
	// ascending Q spanning exactly 0..1, positive non-decreasing
	// weights).
	DensityAnchors []DensityAnchor `json:"density_anchors"`

	// Peaks are pinned head cells; their anchors must lie inside the
	// footprint box.
	Peaks []SyntheticPeak `json:"peaks,omitempty"`

	// Districts is the number of synthetic income districts the cells
	// partition into; DistrictPrefix (two digits) prefixes the 5-digit
	// district codes, and RegionAbbr labels them in the income table.
	Districts      int    `json:"districts"`
	DistrictPrefix string `json:"district_prefix"`
	RegionAbbr     string `json:"region_abbr"`

	// IncomeAnchors pin the location-weighted income quantile function
	// (census.IncomeQuantile rules: strictly increasing in both Q and
	// income).
	IncomeAnchors []census.QuantileAnchor `json:"income_anchors"`
}

func validRegionKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return key[0] != '-' && key[len(key)-1] != '-'
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports whether the spec is internally coherent. Every
// numeric field is checked for NaN/Inf explicitly: JSON cannot encode
// them, but hand-built specs can carry them, and they must never reach
// the generator.
func (s SyntheticSpec) Validate() error {
	if !validRegionKey(s.Key) {
		return fmt.Errorf("region: invalid region key %q (want lowercase letters, digits, interior hyphens)", s.Key)
	}
	if s.Name == "" {
		return fmt.Errorf("region: spec %q has no name", s.Key)
	}
	if !s.Resolution.Valid() {
		return fmt.Errorf("region: spec %q: invalid resolution %d", s.Key, s.Resolution)
	}
	for _, v := range []float64{s.LatMinDeg, s.LatMaxDeg, s.LngMinDeg, s.LngMaxDeg} {
		if !finite(v) {
			return fmt.Errorf("region: spec %q: non-finite footprint bound %v", s.Key, v)
		}
	}
	if s.LatMinDeg < -90 || s.LatMaxDeg > 90 || s.LatMinDeg >= s.LatMaxDeg {
		return fmt.Errorf("region: spec %q: latitude bounds [%v, %v] must satisfy -90 <= min < max <= 90",
			s.Key, s.LatMinDeg, s.LatMaxDeg)
	}
	if s.LngMinDeg < -180 || s.LngMaxDeg > 180 || s.LngMinDeg >= s.LngMaxDeg {
		return fmt.Errorf("region: spec %q: longitude bounds [%v, %v] must satisfy -180 <= min < max <= 180",
			s.Key, s.LngMinDeg, s.LngMaxDeg)
	}
	if s.TotalLocations <= 0 {
		return fmt.Errorf("region: spec %q: total locations must be positive, got %d", s.Key, s.TotalLocations)
	}
	if s.Cells <= 0 {
		return fmt.Errorf("region: spec %q: cell count must be positive, got %d", s.Key, s.Cells)
	}
	if len(s.DensityAnchors) < 2 {
		return fmt.Errorf("region: spec %q: need at least 2 density anchors", s.Key)
	}
	for i, a := range s.DensityAnchors {
		if !finite(a.Q) || !finite(a.Weight) {
			return fmt.Errorf("region: spec %q: non-finite density anchor at index %d", s.Key, i)
		}
		if a.Weight <= 0 {
			return fmt.Errorf("region: spec %q: density weight %v at index %d must be positive", s.Key, a.Weight, i)
		}
		if i > 0 {
			prev := s.DensityAnchors[i-1]
			if a.Q <= prev.Q || a.Weight < prev.Weight {
				return fmt.Errorf("region: spec %q: density anchors must increase at index %d", s.Key, i)
			}
		}
	}
	//lint:ignore floatcmp validates exact endpoints of hand-authored spec anchors, not computed floats
	if s.DensityAnchors[0].Q != 0 || s.DensityAnchors[len(s.DensityAnchors)-1].Q != 1 {
		return fmt.Errorf("region: spec %q: density anchors must span Q=0..1", s.Key)
	}
	peakSum := 0
	for i, p := range s.Peaks {
		if p.Locations <= 0 {
			return fmt.Errorf("region: spec %q: peak %d locations must be positive, got %d", s.Key, i, p.Locations)
		}
		if !finite(p.LatDeg) || !finite(p.LngDeg) {
			return fmt.Errorf("region: spec %q: peak %d has a non-finite anchor", s.Key, i)
		}
		if p.LatDeg < s.LatMinDeg || p.LatDeg > s.LatMaxDeg || p.LngDeg < s.LngMinDeg || p.LngDeg > s.LngMaxDeg {
			return fmt.Errorf("region: spec %q: peak %d anchor (%v, %v) outside the footprint box",
				s.Key, i, p.LatDeg, p.LngDeg)
		}
		peakSum += p.Locations
	}
	if peakSum >= s.TotalLocations {
		return fmt.Errorf("region: spec %q: peaks (%d) exceed total (%d)", s.Key, peakSum, s.TotalLocations)
	}
	if s.Districts < 1 || s.Districts > s.Cells+len(s.Peaks) {
		return fmt.Errorf("region: spec %q: districts %d outside [1, %d cells]", s.Key, s.Districts, s.Cells+len(s.Peaks))
	}
	if len(s.DistrictPrefix) != 2 || s.DistrictPrefix[0] < '0' || s.DistrictPrefix[0] > '9' ||
		s.DistrictPrefix[1] < '0' || s.DistrictPrefix[1] > '9' {
		return fmt.Errorf("region: spec %q: district prefix %q must be exactly two digits", s.Key, s.DistrictPrefix)
	}
	if s.Districts > 1000 {
		return fmt.Errorf("region: spec %q: districts %d exceed the 3-digit code space", s.Key, s.Districts)
	}
	if s.RegionAbbr == "" {
		return fmt.Errorf("region: spec %q has no region abbreviation", s.Key)
	}
	if _, err := census.IncomeQuantile(s.IncomeAnchors, 0.5); err != nil {
		return fmt.Errorf("region: spec %q: %w", s.Key, err)
	}
	return nil
}

// shapeAt evaluates the density shape at q in [0,1], interpolating
// log-linearly between anchors (weights are validated positive).
func (s SyntheticSpec) shapeAt(q float64) float64 {
	a := s.DensityAnchors
	if q <= 0 {
		return a[0].Weight
	}
	if q >= 1 {
		return a[len(a)-1].Weight
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].Q > q }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(a)-1 {
		i = len(a) - 2
	}
	lo, hi := a[i], a[i+1]
	t := (q - lo.Q) / (hi.Q - lo.Q)
	return math.Exp(math.Log(lo.Weight) + t*(math.Log(hi.Weight)-math.Log(lo.Weight)))
}

// bodyCounts splits total over exactly n cells proportionally to the
// anchored shape: one location per cell guaranteed, the remainder
// apportioned by floors, leftovers by descending fractional part with
// an index tie-break. Pure arithmetic — no RNG — so the split is a
// function of (total, n, anchors) alone. Counts come back ascending.
func (s SyntheticSpec) bodyCounts(total, n int) ([]int, error) {
	if total < n {
		return nil, fmt.Errorf("region: spec %q: %d body locations cannot cover %d cells (scale too small)",
			s.Key, total, n)
	}
	weights := make([]float64, n)
	sumW := 0.0
	for k := 0; k < n; k++ {
		weights[k] = s.shapeAt((float64(k) + 0.5) / float64(n))
		sumW += weights[k]
	}
	counts := make([]int, n)
	rem := total - n
	type leftover struct {
		idx  int
		frac float64
	}
	fracs := make([]leftover, n)
	assigned := 0
	for k := 0; k < n; k++ {
		share := float64(rem) * weights[k] / sumW
		whole := int(math.Floor(share))
		counts[k] = 1 + whole
		assigned += whole
		fracs[k] = leftover{idx: k, frac: share - float64(whole)}
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].frac > fracs[j].frac {
			return true
		}
		if fracs[i].frac < fracs[j].frac {
			return false
		}
		return fracs[i].idx < fracs[j].idx
	})
	for i := 0; i < rem-assigned; i++ {
		counts[fracs[i].idx]++
	}
	sort.Ints(counts)
	return counts, nil
}

// bodyCountsMemo holds synthetic bodyCounts results. They are a pure
// function of the total, the cell count and the density anchors, so
// every generation of a region at one scale shares one split whatever
// its seed. The bound keeps ad-hoc specs and scales from growing it
// without limit.
var bodyCountsMemo = memo.New(memo.Options[[]int]{MaxEntries: 8})

// memoBodyCounts is bodyCounts through bodyCountsMemo, keyed by the
// total, the cell count and the anchors' exact bits. The result is
// shared: callers must not modify it.
func (s SyntheticSpec) memoBodyCounts(ctx context.Context, total, n int) ([]int, error) {
	key := strconv.AppendInt(nil, int64(total), 10)
	key = append(key, ' ')
	key = strconv.AppendInt(key, int64(n), 10)
	for _, a := range s.DensityAnchors {
		key = append(key, ' ')
		key = strconv.AppendUint(key, math.Float64bits(a.Q), 16)
		key = append(key, ':')
		key = strconv.AppendUint(key, math.Float64bits(a.Weight), 16)
	}
	counts, _, err := bodyCountsMemo.Do(ctx, string(key), func() ([]int, error) {
		return s.bodyCounts(total, n)
	})
	return counts, err
}

// synthetic is the Region over a validated spec.
type synthetic struct {
	spec SyntheticSpec
}

// NewSynthetic returns the Region a spec declares, validating it
// first.
func NewSynthetic(spec SyntheticSpec) (Region, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return synthetic{spec: spec}, nil
}

func (r synthetic) Key() string         { return r.spec.Key }
func (r synthetic) Name() string        { return r.spec.Name }
func (r synthetic) Description() string { return r.spec.Description }

// Generate synthesizes the region: peaks pinned first, body sites
// drawn by one serial seeded shuffle over the canonical candidate
// list, counts attached through rng.Perm, cells sorted by ID.
func (r synthetic) Generate(ctx context.Context, g GenConfig) (Output, error) {
	if err := g.Validate(); err != nil {
		return Output{}, err
	}
	s := r.spec
	total := s.TotalLocations
	peaks := s.Peaks
	if g.Scale < 1 {
		total = int(float64(total) * g.Scale)
		scaled := make([]SyntheticPeak, len(peaks))
		copy(scaled, peaks)
		for i := range scaled {
			scaled[i].Locations = int(float64(scaled[i].Locations) * g.Scale)
			if scaled[i].Locations < 1 {
				scaled[i].Locations = 1
			}
		}
		peaks = scaled
	}

	rng := rand.New(rand.NewSource(g.Seed))
	used := make(map[hexgrid.CellID]bool)
	ids := make([]hexgrid.CellID, 0, len(peaks)+s.Cells)
	rowLocs := make([]int, 0, len(peaks)+s.Cells)
	peakSum := 0
	for _, p := range peaks {
		id := hexgrid.LatLngToCell(geo.LatLng{Lat: p.LatDeg, Lng: p.LngDeg}, s.Resolution)
		if used[id] {
			return Output{}, fmt.Errorf("region: spec %q: peak anchors collide in cell %v", s.Key, id)
		}
		used[id] = true
		ids = append(ids, id)
		rowLocs = append(rowLocs, p.Locations)
		peakSum += p.Locations
	}
	if peakSum >= total {
		return Output{}, fmt.Errorf("region: spec %q: scaled peaks (%d) exceed scaled total (%d)", s.Key, peakSum, total)
	}
	counts, err := s.memoBodyCounts(ctx, total-peakSum, s.Cells)
	if err != nil {
		return Output{}, err
	}

	candidates, err := boxCells(ctx, s)
	if err != nil {
		return Output{}, err
	}
	pool := make([]hexgrid.CellID, 0, len(candidates))
	for _, id := range candidates {
		if !used[id] {
			pool = append(pool, id)
		}
	}
	if len(pool) < len(counts) {
		return Output{}, fmt.Errorf("region: spec %q: footprint holds only %d free cells, need %d",
			s.Key, len(pool), len(counts))
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	perm := rng.Perm(len(counts))
	for i, id := range pool[:len(counts)] {
		ids = append(ids, id)
		rowLocs = append(rowLocs, counts[perm[i]])
	}

	// The rows are the peaks, then the sites; build each cell once, in
	// ID order. Districts partition the ID-sorted cells into contiguous
	// blocks, so a district is a coherent slice of the geography and the
	// codes are a pure function of the sorted order; each code is
	// formatted once, and each district's weight summed in the same pass.
	cells := make([]demand.Cell, len(ids))
	codes := make([]string, s.Districts)
	weights := make([]int, s.Districts)
	district := -1
	for i, k := range demand.IDOrder(ids) {
		d := i * s.Districts / len(cells)
		if d != district {
			codes[d], district = fmt.Sprintf("%s%03d", s.DistrictPrefix, d), d
		}
		weights[d] += rowLocs[k]
		cells[i] = demand.Cell{ID: ids[k], Locations: rowLocs[k], CountyFIPS: codes[d], Center: ids[k].LatLng()}
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		return Output{}, err
	}
	incomes, err := districtIncomes(codes, weights, s, g.Seed)
	if err != nil {
		return Output{}, err
	}
	return Output{Cells: cells, Dist: dist, Incomes: incomes, Resolution: s.Resolution}, nil
}

// districtIncomes assigns the anchored income quantile function over
// the synthetic districts with demand, ranked by the same seed-keyed fnv
// jitter the US pipeline uses for counties — deterministic, and
// independent of geography so income and demand density stay
// uncorrelated. codes and weights are indexed by district; the codes
// ascend, since the prefix is fixed and the numbers are zero-padded to
// three digits below the 1000-district cap.
func districtIncomes(codes []string, weights []int, s SyntheticSpec, seed int64) (*census.Table, error) {
	cw := make([]census.CountyWeight, 0, len(codes))
	for d, w := range weights {
		if w == 0 {
			continue
		}
		cw = append(cw, census.CountyWeight{
			FIPS:        codes[d],
			StateAbbr:   s.RegionAbbr,
			Weight:      float64(w),
			PovertyRank: rankJitter(seed, codes[d]),
		})
	}
	return census.AssignIncomes(cw, s.IncomeAnchors)
}

// boxGrids memoizes boxCells per (resolution, footprint box), keyed by
// boxKey. The registry declares two synthetic regions; the bound keeps
// ad-hoc specs from growing the memo without limit.
var boxGrids = memo.New(memo.Options[[]hexgrid.CellID]{MaxEntries: 16})

func boxKey(s SyntheticSpec) string {
	key := strconv.AppendInt(nil, int64(s.Resolution), 10)
	for _, v := range []float64{s.LatMinDeg, s.LatMaxDeg, s.LngMinDeg, s.LngMaxDeg} {
		key = append(key, ' ')
		key = strconv.AppendUint(key, math.Float64bits(v), 16)
	}
	return string(key)
}

// boxCells returns the grid cells whose centers fall inside the spec's
// footprint box, in canonical grid order (hexgrid.WalkBox, RNG-free,
// one worker per CPU). Concurrent first calls walk once; a caller
// waiting on another's walk stops waiting when its own ctx ends, and
// the walk itself ignores cancellation so a cancelled leader cannot
// fail its waiters.
func boxCells(ctx context.Context, s SyntheticSpec) ([]hexgrid.CellID, error) {
	ids, _, err := boxGrids.Do(ctx, boxKey(s), func() ([]hexgrid.CellID, error) {
		box := hexgrid.Box{LatLo: s.LatMinDeg, LatHi: s.LatMaxDeg, LngLo: s.LngMinDeg, LngHi: s.LngMaxDeg}
		shards, err := hexgrid.WalkBox(context.WithoutCancel(ctx), s.Resolution, box, par.Workers(0),
			func(shard *[]hexgrid.CellID, id hexgrid.CellID, _ geo.LatLng) { *shard = append(*shard, id) })
		return slices.Concat(shards...), err
	})
	return ids, err
}
