// Package bdc is the synthetic Broadband Data Collection: a stand-in
// for the FCC National Broadband Map the paper analyses. It generates
// un(der)served broadband locations across the United States with a
// per-cell density distribution calibrated to every statistic the paper
// publishes about the real data, and writes datasets as BDC-style CSV,
// the schema of a real National Broadband Map extract.
//
// Calibration anchors (see DESIGN.md §5): ~4.672M total un(der)served
// locations; per-cell distribution with p90 = 552, p99 = 1437; exactly
// five cells above the 3,460-location 20:1 threshold holding 22,428
// locations (5,128 in excess); peak cell 5,998.
package bdc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/stats"
	"leodivide/internal/usgeo"
)

// Generation observability (see internal/obs): stage durations and
// output sizes for the synthetic-dataset pipeline, recorded once per
// generation so the instruments cost nothing on the per-cell paths.
var (
	metricGenerations  = obs.Default.Counter("bdc.generations")
	metricCellsOut     = obs.Default.Counter("bdc.cells_generated")
	metricGenSecs      = obs.Default.Histogram("bdc.generate.seconds", obs.DurationBuckets)
	metricSampleSecs   = obs.Default.Histogram("bdc.sample_sites.seconds", obs.DurationBuckets)
	metricGridSecs     = obs.Default.Histogram("bdc.us_cells.seconds", obs.DurationBuckets)
	metricGridCacheHit = obs.Default.Counter("bdc.us_cells.cache_hits")
)

// QuantileAnchor pins the body-cell location-count quantile function.
type QuantileAnchor struct {
	Q         float64
	Locations float64
}

// PeakCell pins one of the head cells that exceed the 20:1
// oversubscription threshold, at a fixed geographic anchor.
type PeakCell struct {
	Locations int
	Anchor    geo.LatLng
}

// GenConfig controls dataset synthesis. Obtain a calibrated baseline
// from DefaultGenConfig.
type GenConfig struct {
	// Seed drives all pseudo-randomness; equal seeds give identical
	// datasets.
	Seed int64
	// Resolution is the service-cell grid resolution.
	Resolution hexgrid.Resolution
	// TotalLocations is the national total of un(der)served locations.
	TotalLocations int
	// BodyAnchors shape the per-cell count distribution of all cells
	// below the 20:1 threshold (log-linear interpolation between
	// anchors).
	BodyAnchors []QuantileAnchor
	// Peaks are the pinned head cells.
	Peaks []PeakCell
}

// DefaultGenConfig returns the paper-calibrated configuration.
//
// The five peak anchors sit in rural New Mexico, Alabama, Mississippi,
// Kentucky and Arizona; their latitudes are chosen so the 20:1-capped
// scenario binds at a slightly lower latitude (34.3°N) than the
// full-service scenario (34.8°N), reproducing the paper's observation
// that the capped deployment needs marginally more satellites.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:           1,
		Resolution:     5,
		TotalLocations: 4672000,
		BodyAnchors: []QuantileAnchor{
			{Q: 0.0, Locations: 1},
			{Q: 0.40, Locations: 20},
			{Q: 0.75, Locations: 160},
			{Q: 0.90, Locations: 552},
			{Q: 0.905, Locations: 554},
			{Q: 0.99, Locations: 1437},
			{Q: 0.995, Locations: 1450},
			// The body tops out below the 3-beam boundary (2,595 at
			// 20:1) so only the five pinned peaks drive the 4-beam
			// binding constraint, as in the paper.
			{Q: 1.0, Locations: 2500},
		},
		Peaks: []PeakCell{
			{Locations: 5998, Anchor: geo.LatLng{Lat: 35.5, Lng: -106.3}}, // NM
			{Locations: 4700, Anchor: geo.LatLng{Lat: 34.8, Lng: -87.2}},  // AL
			{Locations: 4300, Anchor: geo.LatLng{Lat: 34.3, Lng: -89.9}},  // MS
			{Locations: 3800, Anchor: geo.LatLng{Lat: 36.9, Lng: -83.1}},  // KY
			{Locations: 3630, Anchor: geo.LatLng{Lat: 34.9, Lng: -111.5}}, // AZ
		},
	}
}

// Validate reports whether the configuration is internally coherent.
func (c GenConfig) Validate() error {
	if !c.Resolution.Valid() {
		return fmt.Errorf("bdc: invalid resolution %d", c.Resolution)
	}
	if c.TotalLocations <= 0 {
		return fmt.Errorf("bdc: total locations must be positive, got %d", c.TotalLocations)
	}
	if len(c.BodyAnchors) < 2 {
		return fmt.Errorf("bdc: need at least 2 body anchors")
	}
	for i := 1; i < len(c.BodyAnchors); i++ {
		if c.BodyAnchors[i].Q <= c.BodyAnchors[i-1].Q ||
			c.BodyAnchors[i].Locations < c.BodyAnchors[i-1].Locations {
			return fmt.Errorf("bdc: body anchors must increase at index %d", i)
		}
	}
	//lint:ignore floatcmp validates exact endpoints of hand-authored config anchors, not computed floats
	if c.BodyAnchors[0].Q != 0 || c.BodyAnchors[len(c.BodyAnchors)-1].Q != 1 {
		return fmt.Errorf("bdc: body anchors must span Q=0..1")
	}
	peakSum := 0
	for _, p := range c.Peaks {
		if !p.Anchor.Valid() {
			return fmt.Errorf("bdc: invalid peak anchor %v", p.Anchor)
		}
		peakSum += p.Locations
	}
	if peakSum >= c.TotalLocations {
		return fmt.Errorf("bdc: peaks (%d) exceed total (%d)", peakSum, c.TotalLocations)
	}
	return nil
}

// bodyCounts returns per-cell counts (ascending) whose sum is exactly
// target, drawn from the anchored quantile function.
func (c GenConfig) bodyCounts(target int) []int {
	// The sum over N midpoint-quantile draws grows monotonically with N;
	// binary-search N, then trim the residual on mid-ranked cells.
	//
	// draws evaluates the quantile function (log-linear between anchors)
	// at the midpoints (k+0.5)/n and returns the sum of the rounded
	// draws, each at least 1, storing them in out when it is non-nil. The
	// anchor logs are taken once and the anchor segment is walked
	// forward, since q rises with k; each draw is the same float
	// expression as evaluating it from scratch, so the search probes,
	// which only sum, pick the N a from-scratch search would (pinned
	// against a reference in the tests).
	a := c.BodyAnchors
	logs := make([]float64, len(a))
	for i := range a {
		logs[i] = math.Log(a[i].Locations)
	}
	draws := func(n int, out []int) int {
		last := len(a) - 2
		i, sum := 0, 0
		for k := 0; k < n; k++ {
			q := (float64(k) + 0.5) / float64(n)
			// The segment starts at the last anchor with Q <= q, capped
			// at the final segment; q lies strictly inside (0, 1).
			for i < last && a[i+1].Q <= q {
				i++
			}
			t := (q - a[i].Q) / (a[i+1].Q - a[i].Q)
			v := int(math.Round(math.Exp(logs[i] + t*(logs[i+1]-logs[i]))))
			if v < 1 {
				v = 1
			}
			if out != nil {
				out[k] = v
			}
			sum += v
		}
		return sum
	}
	lo, hi := 1, 16
	for draws(hi, nil) < target {
		lo = hi
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if draws(mid, nil) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	counts := make([]int, lo)
	sum := draws(lo, counts)
	// Trim the residual by decrementing (or incrementing) cells spread
	// across the ranks, preserving the anchored quantiles. The stride is
	// chosen co-prime with n so every cell is eventually visited, and a
	// full no-progress cycle terminates the loop (possible only when the
	// target is smaller than the smallest achievable sum).
	residual := sum - target
	n := len(counts)
	step := 7
	for n > 0 && gcd(step, n) != 1 {
		step++
	}
	idx := n / 4
	sinceProgress := 0
	for residual != 0 && n > 0 && sinceProgress < n {
		i := idx % n
		switch {
		case residual > 0 && counts[i] > 1:
			counts[i]--
			residual--
			sinceProgress = 0
		case residual < 0:
			counts[i]++
			residual++
			sinceProgress = 0
		default:
			sinceProgress++
		}
		idx += step
	}
	sort.Ints(counts)
	return counts
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// bodyCountsMemo holds bodyCounts results. They are a pure function of
// the anchors and the target, so every generation at one scale shares
// one draw whatever its seed. A scale-1 entry is about 27k ints.
var bodyCountsMemo = memo.New(memo.Options[[]int]{MaxEntries: 8})

// memoBodyCounts is bodyCounts through bodyCountsMemo, keyed by the
// target and the anchors' exact bits. The result is shared: callers
// must not modify it.
func (c GenConfig) memoBodyCounts(ctx context.Context, target int) ([]int, error) {
	key := strconv.AppendInt(nil, int64(target), 10)
	for _, a := range c.BodyAnchors {
		key = append(key, ' ')
		key = strconv.AppendUint(key, math.Float64bits(a.Q), 16)
		key = append(key, ':')
		key = strconv.AppendUint(key, math.Float64bits(a.Locations), 16)
	}
	counts, _, err := bodyCountsMemo.Do(ctx, string(key), func() ([]int, error) {
		return c.bodyCounts(target), nil
	})
	return counts, err
}

// GenerateCells synthesizes the national dataset at cell granularity:
// every cell's location count, county and center, and the location sum
// of each county, weights[r] for county r of usgeo.AllCounties(), added
// up as the cells are emitted. This is the fast path the capacity model
// consumes; per-location records are produced by GenerateLocations.
//
// Only the seeded work runs per call, serially on the calling
// goroutine in a fixed order: the US cell table (counties and centers
// included) and the body counts come from process-wide memos, so a
// body cell's center is gathered from the table, and only the pinned
// peaks convert their own.
func GenerateCells(ctx context.Context, cfg GenConfig) (cells demand.Cells, weights []int, err error) {
	//lint:ignore detrand wall-clock feeds the generation timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.generate_cells")
	if span != nil {
		span.SetAttr(obs.Int("total_locations", int64(cfg.TotalLocations)))
	}
	defer func() {
		metricGenSecs.ObserveSince(start)
		if err == nil {
			metricGenerations.Inc()
			metricCellsOut.Add(int64(cells.Len()))
			span.SetAttr(obs.Int("cells", int64(cells.Len())))
		}
		span.End()
	}()
	if err := cfg.Validate(); err != nil {
		return demand.Cells{}, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	counties := usgeo.AllCounties()
	weights = make([]int, len(counties))

	// Pin the head cells first so body sampling can avoid them.
	type peak struct {
		locations int
		county    uint16
		center    geo.LatLng
	}
	peaks := make([]peak, 0, len(cfg.Peaks))
	peakIDs := make([]hexgrid.CellID, 0, len(cfg.Peaks))
	peakSum := 0
	for _, p := range cfg.Peaks {
		id := hexgrid.LatLngToCell(p.Anchor, cfg.Resolution)
		if slices.Contains(peakIDs, id) {
			return demand.Cells{}, nil, fmt.Errorf("bdc: peak anchors collide in cell %v", id)
		}
		peakIDs = append(peakIDs, id)
		center := id.LatLng()
		county, ok := usgeo.CountyAt(center)
		if !ok {
			county, ok = usgeo.CountyAt(p.Anchor)
			if !ok {
				return demand.Cells{}, nil, fmt.Errorf("bdc: peak anchor %v outside US frames", p.Anchor)
			}
		}
		// CountyAt returns a table county, and AllCounties ascend by FIPS.
		r, _ := slices.BinarySearchFunc(counties, county.FIPS, func(c usgeo.County, fips string) int { return cmp.Compare(c.FIPS, fips) })
		weights[r] += p.Locations
		peaks = append(peaks, peak{locations: p.Locations, county: uint16(r), center: center})
		peakSum += p.Locations
	}
	counts, err := cfg.memoBodyCounts(ctx, cfg.TotalLocations-peakSum)
	if err != nil {
		return demand.Cells{}, nil, err
	}

	// Sample body cell sites state by state, proportional to rural
	// weight, rejecting duplicates and off-frame centers.
	grid, picks, err := sampleSites(ctx, rng, cfg.Resolution, len(counts), peakIDs)
	if err != nil {
		return demand.Cells{}, nil, err
	}
	if len(picks) < len(counts) {
		return demand.Cells{}, nil, fmt.Errorf("bdc: sampled only %d of %d body cells", len(picks), len(counts))
	}
	// Counts are assigned to sites in shuffled order so geography and
	// density are independent.
	perm := rng.Perm(len(counts))
	b := demand.NewCellsBuilder(len(picks)+len(peaks), countyCodes())
	EmitCells(grid.ids, picks, peakIDs, func(row int32, site int) {
		r, n := grid.county[row], counts[perm[site]]
		weights[r] += n
		b.Add(grid.ids[row], n, r, grid.center[row])
	}, func(k int) {
		p := peaks[k]
		b.Add(peakIDs[k], p.locations, p.county, p.center)
	})
	if cells, err = b.Cells(); err != nil {
		return demand.Cells{}, nil, err
	}
	return cells, weights, nil
}

// countyCodes is the US area code table: the FIPS code of each county
// of usgeo.AllCounties(), at its index there.
var countyCodes = sync.OnceValue(func() []string {
	counties := usgeo.AllCounties()
	codes := make([]string, len(counties))
	for i, c := range counties {
		codes[i] = c.FIPS
	}
	return codes
})

// EmitCells visits a dataset's cells in ascending ID order, each once.
// Body site j is row sites[j] of a table whose ID column ids ascends,
// and body(row, j) emits it; peak(k) emits the pinned cell peakIDs[k],
// merged in by ID. Ordering the sites is an integer sort of (row,
// site) pairs, packed with the site in the low bits so the keys span
// as few radix digits as the table and the site count need. It runs on
// the calling goroutine and draws no randomness.
func EmitCells(ids []hexgrid.CellID, sites []int32, peakIDs []hexgrid.CellID, body func(row int32, site int), peak func(k int)) {
	siteBits := bits.Len(uint(len(sites)))
	keys := make([]uint64, len(sites))
	for j, row := range sites {
		keys[j] = uint64(row)<<siteBits | uint64(j)
	}
	stats.SortUint64(keys)
	byID := make([]int, len(peakIDs))
	for k := range byID {
		byID[k] = k
	}
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(peakIDs[a], peakIDs[b]) })
	for _, key := range keys {
		row := int32(key >> siteBits)
		for len(byID) > 0 && peakIDs[byID[0]] < ids[row] {
			peak(byID[0])
			byID = byID[1:]
		}
		body(row, int(key&(1<<siteBits-1)))
	}
	for _, k := range byID {
		peak(k)
	}
}

// sampleSites draws n distinct grid cells across the US, weighted by
// state rural weight and avoiding the excluded cells, as rows of the US
// cell table it returns, in emission order. All RNG decisions (pool
// shuffles) run serially in state order. A shortfall returns no rows
// and no error so the caller can report it with context.
func sampleSites(ctx context.Context, rng *rand.Rand, res hexgrid.Resolution, n int, exclude []hexgrid.CellID) (*usGrid, []int32, error) {
	//lint:ignore detrand wall-clock feeds the site-sampling timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.sample_sites")
	if span != nil {
		span.SetAttr(obs.Int("sites", int64(n)))
	}
	defer func() {
		metricSampleSecs.ObserveSince(start)
		span.End()
	}()
	states := usgeo.States()
	totalWeight := usgeo.TotalRuralWeight()
	grid, err := usCells(ctx, res)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Shuffled per-state pools of table rows, minus the excluded cells'
	// rows. Shuffling rows draws exactly what shuffling the cell IDs
	// would. A state's rows ascend, so its pool is copied run by run
	// around the few excluded rows.
	var skip []int32
	for _, id := range exclude {
		if row, ok := slices.BinarySearch(grid.ids, id); ok {
			skip = append(skip, int32(row))
		}
	}
	slices.Sort(skip)
	pools := make([][]int32, len(states))
	totalCapacity := 0
	for i := range states {
		pool := appendExcept(make([]int32, 0, len(grid.rows[i])), grid.rows[i], skip)
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		pools[i] = pool
		totalCapacity += len(pool)
	}
	if totalCapacity < n {
		return grid, nil, nil // caller reports the shortfall
	}

	// Per-state targets proportional to rural weight, capped by pool
	// size, with leftovers redistributed weight-first over states with
	// spare cells.
	targets := make([]int, len(states))
	assigned := 0
	for i, s := range states {
		t := int(math.Floor(float64(n) * s.RuralWeight / totalWeight))
		if t > len(pools[i]) {
			t = len(pools[i])
		}
		targets[i] = t
		assigned += t
	}
	for assigned < n {
		progressed := false
		for i, s := range states {
			if assigned >= n {
				break
			}
			spare := len(pools[i]) - targets[i]
			if spare <= 0 {
				continue
			}
			add := int(math.Ceil(float64(n-assigned) * s.RuralWeight / totalWeight))
			if add > spare {
				add = spare
			}
			if add > n-assigned {
				add = n - assigned
			}
			targets[i] += add
			assigned += add
			progressed = progressed || add > 0
		}
		if !progressed {
			break
		}
	}

	// The picks, in the serial emission order: state by state.
	picks := make([]int32, 0, n)
	for i := range states {
		picks = append(picks, pools[i][:targets[i]]...)
	}
	return grid, picks, nil
}

// appendExcept appends to dst the values of src that are not in drop,
// copying the runs between them. src and drop ascend.
func appendExcept(dst, src, drop []int32) []int32 {
	for _, d := range drop {
		if k, found := slices.BinarySearch(src, d); found {
			dst = append(dst, src[:k]...)
			src = src[k+1:]
		}
	}
	return append(dst, src...)
}

// usGrid is the US cell table at one resolution: every grid cell whose
// center falls inside a US state frame, as parallel columns in
// ascending ID order (the canonical grid order), with the cell's
// county, as its index in usgeo.AllCounties() so a generation sums
// county weights by index, its center, and each state's rows. None of
// it depends on the seed, so it is built once per process and
// resolution (usCells), and a fresh process waits for that build
// before its first generation. The per-cell columns hold no string and
// no pointer, so they cost the GC nothing to scan.
//
// The centers are the ones the build's grid walk converts anyway, kept
// instead of thrown away, so a generation gathers each sampled cell's
// center instead of converting it again (two atan2 per cell). At
// resolution 5 the table has 47,365 rows: 0.76 MB of centers in 1.4 MB
// of columns (TestUSGridBytesPerRow pins the 30 bytes a row costs).
// Two ways of filling it were measured and declined (2 vCPU, Go 1.24):
// converting the centers in a second pass over the finished table
// cost +17% setup_s, and a centers column of the same kind for the
// synthetic brazil-rural footprint (25k cells, of which a generation
// samples about 920) bought +2.5% reproduce ops/s for another 1.1 MB
// of peak RSS, so synthetic regions convert their few cells per
// generation.
type usGrid struct {
	ids    []hexgrid.CellID
	county []uint16     // index into usgeo.AllCounties()
	center []geo.LatLng // ids[row].LatLng(), from the walk
	rows   [][]int32    // per state (usgeo.States() order): its rows, ascending
}

// usBox bounds every state frame, including the trimmed Alaska frame
// and Hawaii.
var usBox = hexgrid.Box{LatLo: 18, LatHi: 67, LngLo: -169, LngHi: -66}

// usGrids memoizes the US cell table per resolution, keyed by gridKey.
var usGrids = memo.New(memo.Options[*usGrid]{MaxEntries: int(hexgrid.MaxResolution) + 1})

func gridKey(res hexgrid.Resolution) string { return strconv.Itoa(int(res)) }

// usCells returns the US cell table at res, building it on first use
// with one worker per CPU. Concurrent first calls build it once; a
// caller waiting on another's build stops waiting when its own ctx
// ends. The build itself ignores cancellation, so a cancelled leader
// cannot fail the waiters it shares it with.
func usCells(ctx context.Context, res hexgrid.Resolution) (*usGrid, error) {
	grid, status, err := usGrids.Do(ctx, gridKey(res), func() (*usGrid, error) {
		return buildUSGrid(context.WithoutCancel(ctx), res, par.Workers(0))
	})
	if err == nil && status != memo.Miss {
		metricGridCacheHit.Inc()
	}
	return grid, err
}

// buildUSGrid walks the grid faces the US box reaches on up to workers
// goroutines, RNG-free, and concatenates the face shards in face order:
// ascending ID order, the same table at every worker count. WalkBox's
// vector prefilter skips the cells outside the box before converting
// them, and each in-box center, which the table keeps, is classified
// by usgeo's bucket-indexed StateIndexAt (an index into
// usgeo.States(), the rows' order) and CountyIndexAt, which give
// exactly the linear scans' answers (TestUSGridDigest).
func buildUSGrid(ctx context.Context, res hexgrid.Resolution, workers int) (*usGrid, error) {
	//lint:ignore detrand wall-clock feeds the grid-cache timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.us_cells")
	defer func() {
		metricGridSecs.ObserveSince(start)
		span.End()
	}()
	states := usgeo.States()
	g := &usGrid{rows: make([][]int32, len(states))}
	offsets := make([]int, len(states))
	for i, s := range states[:len(states)-1] {
		offsets[i+1] = offsets[i] + len(usgeo.CountyTiles(s))
	}
	type cell struct {
		id     hexgrid.CellID
		center geo.LatLng
		county uint16
		state  uint8
	}
	shards, err := hexgrid.WalkBox(ctx, res, usBox, workers, func(shard *[]cell, id hexgrid.CellID, center geo.LatLng) {
		i, ok := usgeo.StateIndexAt(center)
		if !ok {
			return
		}
		*shard = append(*shard, cell{id: id, center: center, county: uint16(offsets[i] + usgeo.CountyIndexAt(i, center)), state: uint8(i)})
	})
	if err != nil {
		return nil, err
	}
	n, sizes := 0, make([]int, len(states))
	for _, shard := range shards {
		n += len(shard)
		for _, c := range shard {
			sizes[c.state]++
		}
	}
	for i, size := range sizes {
		g.rows[i] = make([]int32, 0, size)
	}
	g.ids = make([]hexgrid.CellID, 0, n)
	g.county = make([]uint16, 0, n)
	g.center = make([]geo.LatLng, 0, n)
	for _, shard := range shards {
		for _, c := range shard {
			g.rows[c.state] = append(g.rows[c.state], int32(len(g.ids)))
			g.ids = append(g.ids, c.id)
			g.county = append(g.county, c.county)
			g.center = append(g.center, c.center)
		}
	}
	return g, nil
}

// GenerateLocations expands cells into individual location records.
// scale in (0, 1] shrinks every cell's location count proportionally
// (minimum 1) so tests can exercise the per-location path cheaply.
// Locations are jittered within 30% of the cell radius of the cell
// center, which keeps every location inside its cell's Voronoi region.
// seed and res are the dataset's own generation seed and cell
// resolution, so a dataset's locations follow from its identity.
func GenerateLocations(seed int64, res hexgrid.Resolution, cells demand.Cells, scale float64) ([]demand.Location, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bdc: scale must be in (0,1], got %v", scale)
	}
	rng := rand.New(rand.NewSource(seed + 0x10c5))
	spacingKm := cellSpacingKm(res)
	var out []demand.Location
	var nextID uint64 = 1
	for i := range cells.Len() {
		c := cells.At(i)
		n := int(math.Ceil(float64(c.Locations) * scale))
		if n < 1 {
			n = 1
		}
		state := ""
		if st, ok := usgeo.StateAt(c.Center); ok {
			state = st.Abbr
		}
		for k := 0; k < n; k++ {
			r := 0.3 * spacingKm * math.Sqrt(rng.Float64())
			brg := rng.Float64() * 360
			pos := geo.Destination(c.Center, brg, r)
			down, up, tech := randomLegacyService(rng)
			out = append(out, demand.Location{
				ID:          nextID,
				Pos:         pos,
				CountyFIPS:  c.CountyFIPS,
				StateAbbr:   state,
				MaxDownMbps: down,
				MaxUpMbps:   up,
				Technology:  tech,
			})
			nextID++
		}
	}
	return out, nil
}

// cellSpacingKm approximates the distance between adjacent cell centers
// at a resolution.
func cellSpacingKm(res hexgrid.Resolution) float64 {
	// Hexagon of area A has center spacing sqrt(2A/sqrt(3)).
	a := res.AvgCellAreaKm2()
	return math.Sqrt(2 * a / math.Sqrt(3))
}

// randomLegacyService draws a plausible sub-benchmark service offering:
// every generated location is un(der)served by construction.
func randomLegacyService(rng *rand.Rand) (down, up float64, tech string) {
	round2 := func(x float64) float64 { return math.Floor(x*100) / 100 }
	switch p := rng.Float64(); {
	case p < 0.30:
		return 0, 0, "none"
	case p < 0.55:
		return round2(10 + rng.Float64()*15), round2(1 + rng.Float64()*2), "dsl"
	case p < 0.80:
		return round2(25 + rng.Float64()*50), round2(3 + rng.Float64()*7), "fixed-wireless"
	case p < 0.95:
		return round2(100 + rng.Float64()*100), round2(10 + rng.Float64()*8), "cable" // underserved on upload
	default:
		return 25, 3, "satellite"
	}
}
